//! serve-mixed: a seeded stream of mixed jobs through an `EnginePool`,
//! driven as a closed loop with one request more outstanding than workers.

use std::collections::HashMap;
use std::future::Future;
use std::pin::Pin;
use std::sync::Arc;
use std::task::{Context, Poll, Wake, Waker};
use std::time::{Duration, Instant};

use qits::{run_job, EnginePool, EngineSpec, Job, JobTicket, PoolStats, QitsError};
use qits_circuit::{generators, Circuit, Gate, GateKind};

use crate::check::{dense_equivalent, expected_image, Answer, DenseReach, Tally};
use crate::deck::{images_of, iterations_of, Counts};
use crate::measure::{median, percentile, ratio, Outcome, SchedStat, Trace};
use crate::systems::{basis_product, Rng, System};
use crate::RunConfig;

/// The system every job asks about.
const SYSTEM: System = System::Qrw(6);
/// Pool workers.
const WORKERS: usize = 2;
/// Requests the client keeps outstanding: one more than the workers, so a
/// job usually waits behind one other. With one per worker the median
/// latency sat at the step from equivalences to fixpoints, and with two
/// per worker the upper tail rose steeply; here both the median and the
/// 99th percentile fall where the latencies lie dense.
const OUTSTANDING: usize = WORKERS + 1;
/// Result-memo entries: more than a run completes, so nothing is evicted.
const MEMO_CAPACITY: usize = 1 << 16;
/// Jobs per block. The client drains each block before the next and, while
/// the pool is idle, times the setup of a spare pool, so `setup_s` samples
/// the whole run; `deck_s` is the median block time.
const BLOCK: usize = 100;
/// Jobs a traced run replays on one serial engine.
const REPLAY_JOBS: usize = 400;
/// Stream jobs per requested second: the stream is sized by work, not by
/// the clock, so every run of a seed answers the same jobs.
const JOBS_PER_SECOND: usize = 100;
/// Stream jobs a run completes at least: enough for ten samples beyond
/// the 99th percentile.
const MIN_JOBS: usize = 1000;
/// Fixpoint bounds are drawn from `MIN_BOUND..MIN_BOUND + 2^20`, above the
/// 18 iterations the walk needs: distinct memo keys, one fixpoint.
const MIN_BOUND: usize = 32;

/// What a stream job asks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Reach,
    Invariant,
    Equivalence,
    Image,
    /// An exact repeat of an earlier job.
    Repeat,
}

impl Kind {
    pub const ALL: [Kind; 5] = [
        Kind::Reach,
        Kind::Invariant,
        Kind::Equivalence,
        Kind::Image,
        Kind::Repeat,
    ];

    /// Its latency metric.
    pub fn metric(self) -> &'static str {
        match self {
            Kind::Reach => "pool.reach_ms_p50",
            Kind::Invariant => "pool.invariant_ms_p50",
            Kind::Equivalence => "pool.equiv_ms_p50",
            Kind::Image => "pool.image_ms_p50",
            Kind::Repeat => "pool.repeat_ms_p50",
        }
    }
}

/// One job of the stream.
#[derive(Debug, Clone)]
pub struct StreamJob {
    pub kind: Kind,
    pub job: Job,
    /// The job this one repeats, or its own index.
    pub source: usize,
}

/// The job mix of every 20 consecutive stream jobs, in a seeded order:
/// reachability 30%, invariants 15%, equivalences 25%, images 10% and
/// repeats 20%. Fixed counts per round keep the mix, and with it the
/// run's work, the same for every seed.
const ROUND: [Kind; 20] = {
    use Kind::*;
    [
        Reach,
        Reach,
        Reach,
        Reach,
        Reach,
        Reach,
        Invariant,
        Invariant,
        Invariant,
        Equivalence,
        Equivalence,
        Equivalence,
        Equivalence,
        Equivalence,
        Image,
        Image,
        Repeat,
        Repeat,
        Repeat,
        Repeat,
    ]
};

/// The first `len` jobs of the stream seeded by `seed`.
pub fn stream(seed: u64, len: usize) -> Vec<StreamJob> {
    let mut gen = Generator {
        rng: Rng::new(seed),
        n: SYSTEM.spec().n_qubits,
    };
    let mut jobs: Vec<StreamJob> = Vec::with_capacity(len);
    let mut round = ROUND;
    for index in 0..len {
        if index.is_multiple_of(ROUND.len()) {
            let order = gen.rng.permutation(ROUND.len());
            round = std::array::from_fn(|slot| ROUND[order[slot]]);
            if index == 0 {
                // Nothing precedes the first job for it to repeat.
                let new = round.iter().position(|&k| k != Kind::Repeat);
                round.swap(0, new.expect("the round asks something new"));
            }
        }
        let kind = round[index % ROUND.len()];
        let job = match kind {
            Kind::Reach => Job::reachability(gen.bound()),
            Kind::Invariant => {
                let states = gen.state_set();
                Job::invariant(gen.n, states, gen.bound())
            }
            Kind::Equivalence => gen.clifford_t_pair(),
            Kind::Image => Job::image(),
            Kind::Repeat => {
                let earlier = &jobs[gen.rng.below(index)];
                let repeat = StreamJob {
                    kind,
                    job: earlier.job.clone(),
                    source: earlier.source,
                };
                jobs.push(repeat);
                continue;
            }
        };
        jobs.push(StreamJob {
            kind,
            job,
            source: index,
        });
    }
    jobs
}

/// Draws the seeded parts of new jobs.
struct Generator {
    rng: Rng,
    n: u32,
}

impl Generator {
    fn bound(&mut self) -> usize {
        MIN_BOUND + self.rng.below(1 << 20)
    }

    /// A third of the sets hold every basis state (in a seeded order), the
    /// rest a seeded proper subset.
    fn state_set(&mut self) -> Vec<Vec<(qits_num::Cplx, qits_num::Cplx)>> {
        let all = 1usize << self.n;
        let k = if self.rng.unit() < 1.0 / 3.0 {
            all
        } else {
            1 + self.rng.below(all - 1)
        };
        let mut order = self.rng.permutation(all);
        order.truncate(k);
        order
            .into_iter()
            .map(|x| basis_product(self.n, x))
            .collect()
    }

    /// A random Clifford+T circuit and either an equivalent rewrite (a
    /// self-inverse pair inserted) or an inequivalent one (a `T` inserted).
    fn clifford_t_pair(&mut self) -> Job {
        let n = self.n;
        let depth = 30 + self.rng.below(21) as u32;
        let seed = self.rng.next_u64();
        let a = generators::random_clifford_t(n, depth, 0.0, seed).operations[0]
            .kraus_branches()
            .remove(0);
        let q = self.rng.below(n as usize) as u32;
        let inserted = if self.rng.unit() < 0.5 {
            let other = (q + 1 + self.rng.below(n as usize - 1) as u32) % n;
            match self.rng.below(4) {
                0 => vec![Gate::h(q), Gate::h(q)],
                1 => vec![Gate::cx(q, other), Gate::cx(q, other)],
                2 => vec![Gate::single(GateKind::S, q), Gate::single(GateKind::Sdg, q)],
                _ => vec![Gate::single(GateKind::T, q), Gate::single(GateKind::Tdg, q)],
            }
        } else {
            vec![Gate::single(GateKind::T, q)]
        };
        let at = self.rng.below(a.len() + 1);
        let mut b = Circuit::new(n);
        for g in a.gates()[..at]
            .iter()
            .chain(&inserted)
            .chain(&a.gates()[at..])
        {
            b.push(g.clone());
        }
        Job::equivalence(a, b)
    }
}

/// The answers the stream's jobs should get, computed densely and cached
/// per distinct job.
struct Oracle {
    space: DenseReach,
    image: Answer,
    cache: HashMap<usize, Answer>,
}

impl Default for Oracle {
    fn default() -> Self {
        Oracle {
            space: DenseReach::of(&SYSTEM.spec()),
            image: expected_image(SYSTEM),
            cache: HashMap::new(),
        }
    }
}

impl Oracle {
    /// The answer job `index` of the stream should get.
    fn expected(&mut self, jobs: &[StreamJob], index: usize) -> Answer {
        let source = jobs[index].source;
        let (space, image) = (&self.space, &self.image);
        self.cache
            .entry(source)
            .or_insert_with(|| match &jobs[source].job {
                Job::Reachability { max_iterations } => space.reach(*max_iterations),
                Job::Invariant {
                    states,
                    max_iterations,
                    ..
                } => space.invariant(states, *max_iterations),
                Job::Equivalence { a, b, .. } => Answer::Equivalence {
                    equivalent: dense_equivalent(a, b),
                },
                Job::Image { .. } => image.clone(),
            })
            .clone()
    }
}

/// One answered job of the pool stream.
#[derive(Debug, Clone)]
pub struct Completion {
    pub index: usize,
    pub kind: Kind,
    /// Submit to delivery, as the ticket measured it.
    pub latency_s: f64,
    pub answer: Answer,
}

/// Wakes the client thread when a ticket resolves.
struct Unpark(std::thread::Thread);

impl Wake for Unpark {
    fn wake(self: Arc<Self>) {
        self.0.unpark();
    }
}

/// Generates the system's spec and builds a pool over it, returning the
/// pool and how long each took.
fn set_up(trace: Option<&mut Trace>) -> Result<(EnginePool, f64, f64), QitsError> {
    let t0 = Instant::now();
    let spec = SYSTEM.spec();
    let t1 = Instant::now();
    let pool = EnginePool::builder(EngineSpec::new(spec))
        .workers(WORKERS)
        .memo_capacity(MEMO_CAPACITY)
        .build()?;
    let t2 = Instant::now();
    if let Some(t) = trace {
        let root = t.record("setup", None, t0, t2);
        t.record(format!("spec {}", SYSTEM.name()), Some(root), t0, t1);
        t.record("build pool", Some(root), t1, t2);
    }
    Ok((pool, (t1 - t0).as_secs_f64(), (t2 - t1).as_secs_f64()))
}

/// The stream jobs a run answers: [`JOBS_PER_SECOND`] per requested
/// second, at least [`MIN_JOBS`], in whole blocks.
fn stream_len(cfg: &RunConfig) -> usize {
    let jobs = MIN_JOBS.max(JOBS_PER_SECOND * cfg.seconds.ceil() as usize);
    jobs.next_multiple_of(BLOCK)
}

/// One block of the stream as the pool answered it.
#[derive(Debug, Clone)]
pub struct Block {
    pub traced: bool,
    /// From the first submit to the last answer seen.
    pub wall_s: f64,
}

/// What driving the stream through the pool measured.
struct Driven {
    completions: Vec<Completion>,
    blocks: Vec<Block>,
    /// `(spec_s, build_s)` of the spare pools set up between blocks.
    setups: Vec<(f64, f64)>,
}

/// Answers `jobs` block by block on `pool`, keeping [`OUTSTANDING`]
/// requests in flight and draining each block before the next; between
/// blocks it times the setup of a spare pool. A traced run records a span
/// per job in every other block.
fn drive(
    pool: &EnginePool,
    jobs: &[StreamJob],
    mut trace: Option<&mut Trace>,
) -> Result<Driven, QitsError> {
    let handle = pool.handle();
    let waker = Waker::from(Arc::new(Unpark(std::thread::current())));
    let mut cx = Context::from_waker(&waker);
    let mut driven = Driven {
        completions: Vec::with_capacity(jobs.len()),
        blocks: Vec::new(),
        setups: Vec::new(),
    };
    for (b, block) in jobs.chunks(BLOCK).enumerate() {
        if b > 0 {
            let (spare, spec_s, build_s) = set_up(trace.as_deref_mut())?;
            driven.setups.push((spec_s, build_s));
            spare.shutdown();
        }
        let traced = trace.is_some() && b.is_multiple_of(2);
        let root = trace
            .as_deref_mut()
            .filter(|_| traced)
            .map(|t| t.open(format!("block {b}"), None));
        let first = b * BLOCK;
        let start = Instant::now();
        let mut inflight: Vec<(usize, Instant, Result<JobTicket, QitsError>)> = Vec::new();
        let mut next = 0;
        loop {
            while next < block.len() && inflight.len() < OUTSTANDING {
                let submitted = Instant::now();
                let ticket = handle.try_submit(block[next].job.clone());
                inflight.push((first + next, submitted, ticket));
                next += 1;
            }
            if inflight.is_empty() {
                break;
            }
            let mut progressed = false;
            let mut i = 0;
            while i < inflight.len() {
                let result = match &mut inflight[i].2 {
                    Ok(ticket) => match Pin::new(ticket).poll(&mut cx) {
                        Poll::Ready(r) => r,
                        Poll::Pending => {
                            i += 1;
                            continue;
                        }
                    },
                    Err(e) => Err(e.clone()),
                };
                let (index, submitted, ticket) = inflight.swap_remove(i);
                let latency = ticket
                    .ok()
                    .and_then(|t| t.latency())
                    .unwrap_or_else(|| submitted.elapsed());
                let kind = jobs[index].kind;
                if let (Some(t), Some(_)) = (trace.as_deref_mut(), root) {
                    t.record(
                        format!("job {kind:?}"),
                        root,
                        submitted,
                        submitted + latency,
                    );
                }
                driven.completions.push(Completion {
                    index,
                    kind,
                    latency_s: latency.as_secs_f64(),
                    answer: Answer::of(&result),
                });
                progressed = true;
            }
            if !progressed {
                std::thread::park();
            }
        }
        driven.blocks.push(Block {
            traced,
            wall_s: start.elapsed().as_secs_f64(),
        });
        if let (Some(t), Some(id)) = (trace.as_deref_mut(), root) {
            t.close(id);
        }
    }
    Ok(driven)
}

/// What replaying the stream's first [`REPLAY_JOBS`] jobs through
/// `run_job` on one warm serial engine (no memo) measured.
#[derive(Debug, Clone, Default)]
pub struct Replay {
    pub wall_s: f64,
    pub fixpoint_s: f64,
    pub fixpoint_images_s: f64,
    pub images_s: f64,
    pub equiv_s: f64,
    pub counts: Counts,
    pub answers: Vec<Answer>,
}

fn replay(jobs: &[StreamJob]) -> Result<Replay, QitsError> {
    let mut engine = EngineSpec::new(SYSTEM.spec()).build()?;
    let mut r = Replay::default();
    let start = Instant::now();
    for StreamJob { job, .. } in &jobs[..REPLAY_JOBS] {
        let t0 = Instant::now();
        let result = run_job(&mut engine, job);
        let took = t0.elapsed().as_secs_f64();
        r.answers.push(Answer::of(&result));
        let Ok(out) = result else { continue };
        let images = images_of(&out);
        let image_time: Duration = images.iter().map(|s| s.elapsed).sum();
        r.counts.add_images(images);
        r.counts.iterations += iterations_of(&out) as u64;
        r.images_s += image_time.as_secs_f64();
        match job {
            Job::Reachability { .. } | Job::Invariant { .. } => {
                r.fixpoint_s += took;
                r.fixpoint_images_s += image_time.as_secs_f64();
            }
            Job::Equivalence { .. } => r.equiv_s += took,
            Job::Image { .. } => {}
        }
    }
    r.wall_s = start.elapsed().as_secs_f64();
    r.counts.add_engine(&engine);
    Ok(r)
}

/// Everything a serve-mixed run measured.
pub struct ServeRun {
    /// `(spec_s, build_s)` of the serving pool and of every spare.
    pub setups: Vec<(f64, f64)>,
    pub completions: Vec<Completion>,
    pub blocks: Vec<Block>,
    pub stats: PoolStats,
    pub replay: Option<Replay>,
    pub noise: SchedStat,
    pub tally: Tally,
    pub trace: Option<Trace>,
}

/// Builds the pool, drives the stream through it, and (traced) replays
/// the stream's start serially; checks every answer once the timing is
/// over.
pub fn run(cfg: &RunConfig) -> Result<ServeRun, QitsError> {
    let mut trace = cfg.trace.then(|| Trace::new(Instant::now()));
    let jobs = stream(cfg.seed, stream_len(cfg));
    let before = SchedStat::now();
    let (pool, spec_s, build_s) = set_up(trace.as_mut())?;
    let driven = drive(&pool, &jobs, trace.as_mut())?;
    let noise = SchedStat::now().since(before);
    let stats = pool.shutdown();
    let replay = if cfg.trace {
        Some(replay(&jobs)?)
    } else {
        None
    };

    let mut oracle = Oracle::default();
    let mut tally = Tally::default();
    for c in &driven.completions {
        let expected = oracle.expected(&jobs, c.index);
        tally.record(&format!("stream job {}", c.index), &expected, &c.answer);
    }
    if let Some(r) = &replay {
        for (i, answer) in r.answers.iter().enumerate() {
            let expected = oracle.expected(&jobs, i);
            tally.record(&format!("replayed job {i}"), &expected, answer);
        }
    }
    let mut setups = vec![(spec_s, build_s)];
    setups.extend(driven.setups);
    Ok(ServeRun {
        setups,
        completions: driven.completions,
        blocks: driven.blocks,
        stats,
        replay,
        noise,
        tally,
        trace,
    })
}

impl ServeRun {
    /// The median time of the traced or untraced blocks.
    fn block_s(&self, traced: bool) -> Option<f64> {
        let walls: Vec<f64> = self
            .blocks
            .iter()
            .filter(|b| b.traced == traced)
            .map(|b| b.wall_s)
            .collect();
        median(&walls)
    }

    /// The run's metrics; see [`DeckRun::outcome`](crate::deck::DeckRun::outcome).
    pub fn outcome(&self) -> Outcome {
        let mut out = Outcome {
            tally: self.tally,
            ..Outcome::default()
        };
        let setup =
            |f: fn(&(f64, f64)) -> f64| median(&self.setups.iter().map(f).collect::<Vec<_>>());
        out.set("setup_s", setup(|s| s.0 + s.1));
        let deck_s = self.block_s(false);
        out.set("deck_s", deck_s);
        let wall: f64 = self.blocks.iter().map(|b| b.wall_s).sum();
        let jobs_per_s = ratio(self.completions.len() as f64, wall);
        out.set("jobs_per_s", jobs_per_s);
        let ms: Vec<f64> = self.completions.iter().map(|c| c.latency_s * 1e3).collect();
        out.set("job_ms_p50", percentile(&ms, 0.5));
        out.set("job_ms_p99", percentile(&ms, 0.99));
        let peak: usize = self
            .stats
            .workers
            .iter()
            .map(|w| w.manager.peak_arena)
            .sum();
        out.set("peak_arena_nodes", peak as f64);

        out.set("circuit.spec_s", setup(|s| s.0));
        out.set("engine.build_s", setup(|s| s.1));
        if let Some(r) = &self.replay {
            out.set("mc.fixpoint_s", r.fixpoint_s);
            out.set("image.kernel_s", r.images_s);
            out.set("subspace.join_s", r.fixpoint_s - r.fixpoint_images_s);
            out.set("equiv.check_s", r.equiv_s);
            let serial = ratio(REPLAY_JOBS as f64, r.wall_s);
            out.set("pool.serial_jobs_per_s", serial);
            out.set("pool.speedup", ratio(jobs_per_s, serial));
            r.counts.report(&mut out);
        }
        let memo = self.stats.memo;
        out.set(
            "pool.memo_hit_rate",
            ratio(memo.hits as f64, (memo.hits + memo.misses) as f64),
        );
        for kind in Kind::ALL {
            let of_kind: Vec<f64> = self
                .completions
                .iter()
                .filter(|c| c.kind == kind)
                .map(|c| c.latency_s * 1e3)
                .collect();
            out.set(kind.metric(), percentile(&of_kind, 0.5));
        }
        let per_worker: Vec<u64> = self
            .stats
            .workers
            .iter()
            .map(|w| w.jobs_completed)
            .collect();
        let most = per_worker.iter().copied().max().unwrap_or(0);
        out.set(
            "pool.worker_share_max",
            ratio(most as f64, per_worker.iter().sum::<u64>() as f64),
        );
        out.set("proc.cpu_s", self.noise.cpu_s);
        out.set("proc.runq_wait_s", self.noise.wait_s);
        let overhead = self.block_s(true).zip(deck_s).map(|(t, u)| t - u);
        out.set("trace.overhead_s", overhead);
        out
    }
}
