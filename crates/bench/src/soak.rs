//! The serving soak: thousands of mixed jobs through the async front of
//! an [`EnginePool`], with tail-latency accounting.
//!
//! This is the harness behind CI's `serve-soak` job (the `serve_soak`
//! binary). It drives the whole serving surface at once — priorities,
//! deadlines, cancellation, the result memo — and then audits the books:
//! every submitted job must resolve exactly once (no lost results, no
//! duplicates — a ticket *is* a oneshot, so a second result per job has
//! nowhere to land), nothing may fail, and the p50/p95/p99/max completion
//! latencies are recorded for the binary's p99 ceiling.

use std::time::Duration;

use qits::serve::{JobRequest, Priority};
use qits::{CancelToken, EnginePool, EngineSpec, Job, QitsError};
use qits_circuit::{generators, Circuit, Gate};

/// Shape of one soak run.
#[derive(Debug, Clone, Copy)]
pub struct SoakConfig {
    /// Pool worker threads.
    pub workers: usize,
    /// Total jobs fired.
    pub jobs: usize,
    /// Result-memo capacity (entries).
    pub memo_capacity: usize,
}

impl Default for SoakConfig {
    /// The CI shape: 4 workers, 2000 mixed jobs, a memo big enough that
    /// the recurring shapes all stay resident.
    fn default() -> Self {
        SoakConfig {
            workers: 4,
            jobs: 2000,
            memo_capacity: 4096,
        }
    }
}

/// One soak's outcome accounting plus the completion-latency percentiles
/// of the `Ok` jobs.
#[derive(Debug, Clone, Default)]
pub struct ServeMeasurement {
    /// Pool worker threads.
    pub workers: usize,
    /// Jobs fired.
    pub jobs: usize,
    /// Median completion latency (submission → result), milliseconds.
    pub p50_ms: f64,
    /// 95th-percentile completion latency, milliseconds.
    pub p95_ms: f64,
    /// 99th-percentile completion latency — the gated tail.
    pub p99_ms: f64,
    /// Worst completion latency observed.
    pub max_ms: f64,
    /// Jobs that resolved `Ok`.
    pub completed: u64,
    /// Jobs that resolved with a non-cancellation, non-deadline error —
    /// always a soak failure.
    pub failed: u64,
    /// Jobs that resolved [`QitsError::Cancelled`] (the deliberately
    /// cancelled slice).
    pub cancelled: u64,
    /// Jobs that resolved [`QitsError::DeadlineExpired`] (the
    /// deliberately expired slice).
    pub expired: u64,
    /// Jobs whose ticket never resolved — always zero, or the soak fails.
    pub lost: u64,
    /// Result-memo hits across the run.
    pub memo_hits: u64,
    /// Result-memo misses across the run.
    pub memo_misses: u64,
    /// `hits / (hits + misses)`.
    pub memo_hit_rate: f64,
}

impl ServeMeasurement {
    /// The soak's pass verdict: every job accounted for, exactly once,
    /// with no genuine failures — and the memo demonstrably working.
    pub fn sound(&self) -> bool {
        self.lost == 0
            && self.failed == 0
            && self.completed + self.failed + self.cancelled + self.expired == self.jobs as u64
            && self.memo_hit_rate > 0.0
    }
}

/// Nearest-rank percentile of an unsorted latency sample, `q` in `[0,1]`.
fn percentile_ms(sorted: &[Duration], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1].as_secs_f64() * 1e3
}

/// The mixed job deck. Most indices land on one of a handful of
/// recurring shapes (so the memo sees real duplicate traffic); two
/// strided slices get per-index-unique reachability jobs so they can
/// never be served from the memo — one slice is submitted pre-cancelled,
/// the other with an already-expired deadline, making the shed paths
/// deterministic.
fn request_for(i: usize) -> (JobRequest, Expected) {
    // Deliberately cancelled slice: a pre-tripped token and a payload no
    // other index shares — must come back `Cancelled`, shed at dequeue.
    if i % 23 == 7 {
        let token = CancelToken::new();
        token.cancel();
        let req = JobRequest::new(Job::reachability(10_000 + i)).cancel_token(token);
        return (req, Expected::Cancelled);
    }
    // Racy-cancel slice: unique payload, cancelled by the driver right
    // after submission — lands `Cancelled` (at dequeue or mid-run via a
    // safepoint) unless a worker beats the trip, in which case `Ok`.
    if i % 23 == 14 {
        let req = JobRequest::new(Job::reachability(20_000 + i)).priority(Priority::Low);
        return (req, Expected::CancelRace);
    }
    // Deadline-expired slice: unique payload, zero budget — must come
    // back `DeadlineExpired`, shed at dequeue.
    if i % 23 == 19 {
        let req = JobRequest::new(Job::reachability(30_000 + i)).deadline(Duration::ZERO);
        return (req, Expected::Expired);
    }
    let priority = match i % 3 {
        0 => Priority::High,
        1 => Priority::Normal,
        _ => Priority::Low,
    };
    let job = match i % 7 {
        0 => Job::image(),
        1 => Job::Image { densify: true },
        2 => Job::reachability(32),
        3 => Job::equivalence(bell_pair(), bell_pair()),
        4 => Job::equivalence(bell_pair(), flipped_bell()),
        5 => Job::reachability(64),
        _ => Job::image(),
    };
    (JobRequest::new(job).priority(priority), Expected::Ok)
}

#[derive(Debug, Clone, Copy, PartialEq)]
enum Expected {
    Ok,
    Cancelled,
    CancelRace,
    Expired,
}

fn bell_pair() -> Circuit {
    let mut c = Circuit::new(2);
    c.push(Gate::h(0));
    c.push(Gate::cx(0, 1));
    c
}

fn flipped_bell() -> Circuit {
    let mut c = bell_pair();
    c.push(Gate::x(1));
    c
}

/// Runs the soak: fires `config.jobs` mixed requests through a
/// [`qits::ServiceHandle`], joins every ticket, and audits the outcome
/// counts against the deck's expectations. Panics only on harness bugs
/// (a spec that fails to build); result soundness is reported through
/// [`ServeMeasurement::sound`] so callers choose their exit path.
pub fn run_serve_soak(config: SoakConfig) -> ServeMeasurement {
    let spec = EngineSpec::new(generators::grover(3));
    let pool = EnginePool::builder(spec)
        .workers(config.workers)
        .memo_capacity(config.memo_capacity)
        .build()
        .expect("the soak spec must form a valid system");
    let handle = pool.handle();

    let mut tickets = Vec::with_capacity(config.jobs);
    for i in 0..config.jobs {
        let (req, expected) = request_for(i);
        let ticket = handle
            .try_submit(req)
            .expect("the soak queue is unbounded; admission cannot fail");
        if expected == Expected::CancelRace {
            ticket.cancel();
        }
        tickets.push((ticket, expected));
    }

    let mut m = ServeMeasurement {
        workers: config.workers,
        jobs: config.jobs,
        ..ServeMeasurement::default()
    };
    let mut latencies = Vec::with_capacity(config.jobs);
    for (mut ticket, expected) in tickets {
        // Drain through `try_join` instead of `join` so the ticket (and
        // its completion timestamp) survives consumption — latency is
        // stamped by the pool at delivery, so polling here costs the
        // harness time but never skews the measurement.
        let result = loop {
            if let Some(r) = ticket.try_join() {
                break r;
            }
            std::thread::sleep(Duration::from_micros(100));
        };
        match &result {
            Ok(_) => {
                m.completed += 1;
                latencies.push(ticket.latency().unwrap_or(Duration::ZERO));
            }
            Err(QitsError::Cancelled) => m.cancelled += 1,
            Err(QitsError::DeadlineExpired) => m.expired += 1,
            Err(e) => {
                if m.failed == 0 {
                    eprintln!("soak: first failure ({expected:?} job): {e}");
                }
                m.failed += 1;
            }
        }
        // The deterministic slices must land exactly as dealt.
        match expected {
            Expected::Cancelled => debug_assert!(matches!(result, Err(QitsError::Cancelled))),
            Expected::Expired => debug_assert!(matches!(result, Err(QitsError::DeadlineExpired))),
            Expected::Ok | Expected::CancelRace => {}
        }
    }
    m.lost = (config.jobs as u64).saturating_sub(m.completed + m.failed + m.cancelled + m.expired);

    let stats = pool.shutdown();
    m.memo_hits = stats.memo.hits;
    m.memo_misses = stats.memo.misses;
    m.memo_hit_rate = stats.memo.hits as f64 / (stats.memo.hits + stats.memo.misses).max(1) as f64;

    latencies.sort_unstable();
    m.p50_ms = percentile_ms(&latencies, 0.50);
    m.p95_ms = percentile_ms(&latencies, 0.95);
    m.p99_ms = percentile_ms(&latencies, 0.99);
    m.max_ms = latencies
        .last()
        .map(|d| d.as_secs_f64() * 1e3)
        .unwrap_or(0.0);
    m
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_take_the_nearest_rank() {
        let ms: Vec<Duration> = (1..=100).map(Duration::from_millis).collect();
        assert_eq!(percentile_ms(&ms, 0.50), 50.0);
        assert_eq!(percentile_ms(&ms, 0.99), 99.0);
        assert_eq!(percentile_ms(&ms, 1.0), 100.0);
        assert_eq!(percentile_ms(&[], 0.99), 0.0);
        assert_eq!(percentile_ms(&[Duration::from_millis(7)], 0.5), 7.0);
    }

    #[test]
    fn small_soak_is_sound() {
        // A miniature of the CI soak: every deck slice present, books
        // balanced, memo demonstrably hit.
        let m = run_serve_soak(SoakConfig {
            workers: 2,
            jobs: 200,
            memo_capacity: 1024,
        });
        assert!(m.sound(), "soak books must balance: {m:?}");
        assert!(m.cancelled > 0, "the cancelled slice must land: {m:?}");
        assert!(m.expired > 0, "the expired slice must land: {m:?}");
        assert!(m.completed > 0);
        assert!(m.memo_hits > 0);
        assert!(m.p99_ms >= m.p50_ms);
        assert!(m.max_ms >= m.p99_ms);
    }
}
