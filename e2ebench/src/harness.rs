//! What every workload shares: options, set-up repetition, the timed
//! closed loop, and the run's outcome.

use std::time::Instant;

use crate::host::Host;
use crate::metrics::{median, Job, Kind, Metric, Plain, Spans, Tally};

/// Command-line options of one run.
#[derive(Clone, Debug)]
pub struct Opts {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Self-test sizes: every input shrinks to a few thousand entries.
    pub tiny: bool,
    /// Self-test only: corrupt every coloring before verification.
    pub corrupt: bool,
}

/// Why a job did not count as done.
#[derive(Debug)]
pub enum JobError {
    /// A coloring failed verification.
    Invalid(String),
    /// A degraded result, a client error, or backpressure after retries.
    Failed(String),
}

/// Stamp of one generated input, printed and compared between runs.
#[derive(Clone, Debug)]
pub struct InputStamp {
    pub name: String,
    pub digest: u64,
    pub nrows: usize,
    pub ncols: usize,
    pub nnz: usize,
    pub max_net: usize,
    pub bound: usize,
}

impl InputStamp {
    pub fn new(name: &str, m: &sparse::Csr, bound: usize) -> InputStamp {
        InputStamp {
            name: name.to_string(),
            digest: crate::gen::digest(m),
            nrows: m.nrows(),
            ncols: m.ncols(),
            nnz: m.nnz(),
            max_net: crate::gen::max_net(m),
            bound,
        }
    }
}

/// Everything a run reports.
pub struct Outcome {
    pub tally: Tally,
    pub inputs: Vec<InputStamp>,
    pub host: Host,
    pub notes: Vec<String>,
    pub result: Measurement,
}

/// An untraced run's raw record, or a traced run's per-layer metrics.
pub enum Measurement {
    Plain(Plain),
    Traced { metrics: Vec<Metric>, spans: Spans },
}

/// Set-ups per process before the measured span, and again after it; the
/// reported set-up time is the median over all of them.
const SETUPS: usize = 3;

/// Runs `setup` [`SETUPS`] times and keeps the last state, with every
/// set-up's seconds.
pub fn setup_repeated<S>(mut setup: impl FnMut() -> S) -> (S, Vec<f64>) {
    let mut secs = Vec::with_capacity(SETUPS);
    let mut state: Option<S> = None;
    for _ in 0..SETUPS {
        // Drop the previous state first so its memory and threads are gone.
        drop(state.take());
        let t0 = Instant::now();
        state = Some(setup());
        secs.push(t0.elapsed().as_secs_f64());
    }
    (state.expect("set-up ran"), secs)
}

/// Drops the measured state and times [`SETUPS`] more set-ups, so that
/// set-up is sampled after the measured span as well as before it.
pub fn setup_again<S>(state: S, setup: impl FnMut() -> S) -> Vec<f64> {
    drop(state);
    setup_repeated(setup).1
}

/// Files a job result into the tally; returns the finished job, if any.
pub fn settle(tally: &mut Tally, ms: f64, r: Result<(Kind, Vec<f64>), JobError>) -> Option<Job> {
    tally.attempted += 1;
    match r {
        Ok((kind, ratios)) => Some(Job { ms, kind, ratios }),
        Err(JobError::Invalid(why)) => {
            tally.invalid(why);
            None
        }
        Err(JobError::Failed(why)) => {
            tally.fail(why);
            None
        }
    }
}

/// Runs `job` back to back until `seconds` have passed (a job that starts
/// before the deadline finishes). Returns the finished jobs and the
/// measured wall time.
pub fn closed_loop<S>(
    seconds: f64,
    st: &mut S,
    sp: &mut Spans,
    tally: &mut Tally,
    job: &mut impl FnMut(&mut S, &mut Spans) -> Result<(Kind, Vec<f64>), JobError>,
) -> (Vec<Job>, f64) {
    let start = Instant::now();
    let mut jobs = Vec::new();
    let mut id = 0u64;
    while start.elapsed().as_secs_f64() < seconds {
        sp.begin_job(id);
        let t0 = Instant::now();
        let r = job(st, sp);
        let ms = t0.elapsed().as_secs_f64() * 1e3;
        sp.end_job();
        jobs.extend(settle(tally, ms, r));
        id += 1;
    }
    (jobs, start.elapsed().as_secs_f64())
}

/// The measured part of a one-process workload.
pub enum Measured {
    /// Untraced run: the end-to-end jobs.
    Plain { jobs: Vec<Job>, elapsed_s: f64 },
    /// Traced run: spans of the traced half and traced ÷ untraced p50.
    Traced { spans: Spans, overhead: f64 },
}

/// Untraced: one closed loop over the whole budget. Traced: an untraced
/// half, then `attach` turns on the library's own recorder and a traced
/// half runs with spans around every layer call; their p50 ratio is
/// `trace.overhead`.
pub fn measure<S>(
    opts: &Opts,
    st: &mut S,
    tally: &mut Tally,
    attach: impl FnOnce(&mut S),
    mut job: impl FnMut(&mut S, &mut Spans) -> Result<(Kind, Vec<f64>), JobError>,
) -> Measured {
    let epoch = Instant::now();
    let mut off = Spans::new(epoch, 0, false);
    if !opts.trace {
        let (jobs, elapsed_s) = closed_loop(opts.seconds, st, &mut off, tally, &mut job);
        return Measured::Plain { jobs, elapsed_s };
    }
    let (plain, _) = closed_loop(opts.seconds / 2.0, st, &mut off, tally, &mut job);
    attach(st);
    let mut spans = Spans::new(epoch, 0, true);
    let (traced, _) = closed_loop(opts.seconds / 2.0, st, &mut spans, tally, &mut job);
    let p50 = |v: &[Job]| median(&v.iter().map(|j| j.ms).collect::<Vec<_>>());
    let overhead = p50(&traced) / p50(&plain).max(1e-9);
    Measured::Traced { spans, overhead }
}
