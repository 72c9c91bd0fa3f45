//! The serial decks: each system's properties answered on one engine, in
//! order, the way `qits run` answers a scenario file.

use std::time::{Duration, Instant};

use qits::{run_job, Engine, EngineSpec, ImageStats, Job, JobOutput, QitsError};
use qits_tdd::ProbeHistogram;

use crate::check::{expected_image, Answer, DenseReach, Tally};
use crate::measure::{median, ratio, Outcome, SchedStat, Trace};
use crate::systems::{basis_product, System};
use crate::RunConfig;

/// Iteration bound of every deck fixpoint: far above the 16 that ghz7
/// needs.
const MAX_ITERATIONS: usize = 200;

/// Passes a run makes at least, so every property's median answer time
/// has five samples.
const MIN_PASSES: usize = 5;

/// One property and the answer it should get.
#[derive(Debug, Clone)]
pub struct Property {
    pub label: String,
    pub job: Job,
    pub expected: Answer,
}

/// A system and the properties asked of it, in order.
#[derive(Debug, Clone)]
pub struct Entry {
    pub system: System,
    pub properties: Vec<Property>,
}

/// A deck: every entry answered on a fresh engine per pass.
#[derive(Debug, Clone)]
pub struct Deck {
    pub entries: Vec<Entry>,
}

impl Deck {
    /// Tiny dimensions whose floating-point noise inflates the projector:
    /// the join dominates fixpoint time.
    pub fn reach_entangled() -> Deck {
        Deck {
            entries: vec![
                reach(System::Ghz(7)),
                invariants(System::Ghz(6)),
                reach(System::Ghz(5)),
            ],
        }
    }

    /// The paper's measurement: single images on hundreds of wires.
    pub fn image_paper() -> Deck {
        let systems = [
            System::Qft(32),
            System::Bv(60),
            System::Ghz(500),
            System::Qrw(100),
            System::GroverElem(30),
            System::RepCode(8),
        ];
        Deck {
            entries: systems
                .into_iter()
                .map(|system| Entry {
                    system,
                    properties: vec![Property {
                        label: format!("{} image", system.name()),
                        job: Job::image(),
                        expected: expected_image(system),
                    }],
                })
                .collect(),
        }
    }

    /// Properties per pass.
    pub fn property_count(&self) -> usize {
        self.entries.iter().map(|e| e.properties.len()).sum()
    }
}

fn reach(system: System) -> Entry {
    Entry {
        system,
        properties: vec![Property {
            label: format!("{} reach", system.name()),
            job: Job::reachability(MAX_ITERATIONS),
            expected: DenseReach::of(&system.spec()).reach(MAX_ITERATIONS),
        }],
    }
}

/// A holding invariant (every basis state) and a violated one (`|0..0>`).
fn invariants(system: System) -> Entry {
    let spec = system.spec();
    let n = spec.n_qubits;
    let space = DenseReach::of(&spec);
    let property = |label: &str, states: Vec<_>| Property {
        label: format!("{} invariant {label}", system.name()),
        expected: space.invariant(&states, MAX_ITERATIONS),
        job: Job::invariant(n, states, MAX_ITERATIONS),
    };
    Entry {
        system,
        properties: vec![
            property(
                "all",
                (0..1usize << n).map(|x| basis_product(n, x)).collect(),
            ),
            property("zero", vec![basis_product(n, 0)]),
        ],
    }
}

/// The engines of one pass and what building them cost.
pub struct Setup {
    pub engines: Vec<Engine>,
    pub spec_s: f64,
    pub build_s: f64,
}

/// Generates every spec of the deck and builds one engine per entry.
pub fn set_up(deck: &Deck, mut trace: Option<&mut Trace>) -> Result<Setup, QitsError> {
    let root = trace.as_deref_mut().map(|t| t.open("setup", None));
    let mut setup = Setup {
        engines: Vec::with_capacity(deck.entries.len()),
        spec_s: 0.0,
        build_s: 0.0,
    };
    for entry in &deck.entries {
        let t0 = Instant::now();
        let spec = entry.system.spec();
        let t1 = Instant::now();
        let engine = EngineSpec::new(spec).build()?;
        let t2 = Instant::now();
        setup.spec_s += (t1 - t0).as_secs_f64();
        setup.build_s += (t2 - t1).as_secs_f64();
        setup.engines.push(engine);
        if let Some(t) = trace.as_deref_mut() {
            let name = entry.system.name();
            t.record(format!("spec {name}"), root, t0, t1);
            t.record(format!("build {name}"), root, t1, t2);
        }
    }
    if let (Some(t), Some(id)) = (trace, root) {
        t.close(id);
    }
    Ok(setup)
}

/// Counts a pass repeats exactly, run after run.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Counts {
    pub iterations: u64,
    pub image_calls: u64,
    pub branches: u64,
    pub max_nodes: u64,
    pub nodes_created: u64,
    pub peak_arena: u64,
    pub cont_hits: u64,
    pub cont_lookups: u64,
    pub add_hits: u64,
    pub add_lookups: u64,
    pub probe: ProbeHistogram,
}

impl Counts {
    /// Adds the images of one answer.
    pub fn add_images(&mut self, images: &[ImageStats]) {
        self.image_calls += images.len() as u64;
        for s in images {
            self.branches += s.branches as u64;
            self.max_nodes = self.max_nodes.max(s.max_nodes as u64);
        }
    }

    /// Adds the lifetime counters of one engine's manager.
    pub fn add_engine(&mut self, engine: &Engine) {
        let m = engine.manager().stats();
        self.nodes_created += m.nodes_created;
        self.peak_arena = self.peak_arena.max(m.peak_arena as u64);
        self.cont_hits += m.cont_cache.hits;
        self.cont_lookups += m.cont_cache.hits + m.cont_cache.misses;
        self.add_hits += m.add_cache.hits;
        self.add_lookups += m.add_cache.hits + m.add_cache.misses;
        self.probe.absorb(&m.probe_hist);
    }

    /// The `tdd.*`, `image.*` and `mc.iterations` metrics.
    pub fn report(&self, out: &mut Outcome) {
        out.set("mc.iterations", self.iterations as f64);
        out.set("image.calls", self.image_calls as f64);
        out.set("image.branches", self.branches as f64);
        out.set("image.max_nodes", self.max_nodes as f64);
        out.set("tdd.nodes_created", self.nodes_created as f64);
        out.set("tdd.cont_lookups", self.cont_lookups as f64);
        out.set(
            "tdd.cont_hit_rate",
            ratio(self.cont_hits as f64, self.cont_lookups as f64),
        );
        out.set("tdd.add_lookups", self.add_lookups as f64);
        out.set(
            "tdd.add_hit_rate",
            ratio(self.add_hits as f64, self.add_lookups as f64),
        );
        out.set("tdd.probe_p99", f64::from(self.probe.p99()));
    }
}

/// The images an answer computed, as the program reports them.
pub(crate) fn images_of(out: &JobOutput) -> &[ImageStats] {
    match out {
        JobOutput::Image(o) => std::slice::from_ref(&o.stats),
        JobOutput::Reachability(r) => &r.stats,
        JobOutput::Invariant { reach, .. } => &reach.stats,
        JobOutput::Equivalence { .. } => &[],
    }
}

/// The fixpoint iterations an answer ran.
pub(crate) fn iterations_of(out: &JobOutput) -> usize {
    match out {
        JobOutput::Reachability(r) => r.iterations,
        JobOutput::Invariant { reach, .. } => reach.iterations,
        JobOutput::Image(_) | JobOutput::Equivalence { .. } => 0,
    }
}

/// What one pass over the deck measured.
#[derive(Debug, Clone, Default)]
pub struct Pass {
    /// Spec generation of the pass's setup.
    pub spec_s: f64,
    /// Engine builds of the pass's setup.
    pub build_s: f64,
    /// Wall time from the first property asked to the last answer checked.
    pub wall_s: f64,
    /// Each property's answer time, in deck order.
    pub latencies_s: Vec<f64>,
    /// Σ answer time of the fixpoint (reachability and invariant)
    /// properties.
    pub fixpoint_s: f64,
    /// Σ image time inside those fixpoints.
    pub fixpoint_images_s: f64,
    /// Σ image time of every property.
    pub images_s: f64,
    pub counts: Counts,
    pub tally: Tally,
}

/// Answers every property of the deck on the setup's engines, checking
/// each answer.
pub fn answer(deck: &Deck, setup: &mut Setup, mut trace: Option<&mut Trace>) -> Pass {
    let mut pass = Pass {
        spec_s: setup.spec_s,
        build_s: setup.build_s,
        ..Pass::default()
    };
    let root = trace.as_deref_mut().map(|t| t.open("pass", None));
    let start = Instant::now();
    for (entry, engine) in deck.entries.iter().zip(&mut setup.engines) {
        for p in &entry.properties {
            let t0 = Instant::now();
            let result = run_job(engine, &p.job);
            let t1 = Instant::now();
            let latency = (t1 - t0).as_secs_f64();
            pass.latencies_s.push(latency);
            pass.tally
                .record(&p.label, &p.expected, &Answer::of(&result));
            let Ok(out) = result else { continue };
            let images = images_of(&out);
            let image_time: Duration = images.iter().map(|s| s.elapsed).sum();
            pass.counts.add_images(images);
            pass.images_s += image_time.as_secs_f64();
            if !matches!(p.job, Job::Image { .. } | Job::Equivalence { .. }) {
                pass.counts.iterations += iterations_of(&out) as u64;
                pass.fixpoint_s += latency;
                pass.fixpoint_images_s += image_time.as_secs_f64();
            }
            if let Some(t) = trace.as_deref_mut() {
                let id = t.record(p.label.as_str(), root, t0, t1);
                t.set_images(id, image_time);
            }
        }
    }
    pass.wall_s = start.elapsed().as_secs_f64();
    if let (Some(t), Some(id)) = (trace, root) {
        t.close(id);
    }
    for engine in &setup.engines {
        pass.counts.add_engine(engine);
    }
    pass
}

/// Everything a deck run measured.
pub struct DeckRun {
    /// Every pass, with whether it was traced.
    pub passes: Vec<(bool, Pass)>,
    pub noise: SchedStat,
    pub trace: Option<Trace>,
}

/// Answers the deck pass after pass, each on freshly built engines, until
/// `cfg.seconds` have passed and at least [`MIN_PASSES`] passes ran. A
/// traced run traces every other pass, so the untraced ones in between
/// give the tracing overhead.
pub fn run(deck: &Deck, cfg: &RunConfig) -> Result<DeckRun, QitsError> {
    let mut trace = cfg.trace.then(|| Trace::new(Instant::now()));
    let mut passes = Vec::new();
    let before = SchedStat::now();
    let start = Instant::now();
    while passes.len() < MIN_PASSES || start.elapsed().as_secs_f64() < cfg.seconds {
        let traced = cfg.trace && passes.len() % 2 == 0;
        let mut setup = set_up(deck, trace.as_mut().filter(|_| traced))?;
        let pass = answer(deck, &mut setup, trace.as_mut().filter(|_| traced));
        passes.push((traced, pass));
    }
    Ok(DeckRun {
        passes,
        noise: SchedStat::now().since(before),
        trace,
    })
}

impl DeckRun {
    /// The median of `f` over the traced or the untraced passes.
    fn median_of(&self, traced: bool, f: impl Fn(&Pass) -> f64) -> Option<f64> {
        let values: Vec<f64> = self
            .passes
            .iter()
            .filter(|(t, _)| *t == traced)
            .map(|(_, p)| f(p))
            .collect();
        median(&values)
    }

    /// The run's metrics: end-to-end from the untraced passes, per-layer
    /// times from the traced ones.
    pub fn outcome(&self, deck: &Deck) -> Outcome {
        let mut out = Outcome::default();
        for (_, p) in &self.passes {
            out.tally.absorb(p.tally);
        }
        let counts = &self.passes[0].1.counts;
        // Every pass sets the deck up afresh, so setup is sampled across
        // the whole run.
        out.set("setup_s", self.median_of(false, |p| p.spec_s + p.build_s));
        out.set("peak_arena_nodes", counts.peak_arena as f64);

        let deck_s = self.median_of(false, |p| p.wall_s);
        out.set("deck_s", deck_s);
        out.set(
            "jobs_per_s",
            deck_s.map(|d| deck.property_count() as f64 / d),
        );
        // A deck's properties differ in size by orders of magnitude, so
        // its answer-time percentiles are taken over the properties, each
        // summarised by its median over the passes: a pooled percentile
        // would interpolate between the extreme passes of two properties.
        let per_property: Vec<f64> = (0..deck.property_count())
            .filter_map(|i| self.median_of(false, |p| p.latencies_s[i] * 1e3))
            .collect();
        out.set("job_ms_p50", median(&per_property));
        // Every percentile above the (1 - 1/k)-th of a k-property deck
        // falls on its slowest property.
        out.set("job_ms_p99", per_property.iter().copied().reduce(f64::max));

        out.set("circuit.spec_s", self.median_of(true, |p| p.spec_s));
        out.set("engine.build_s", self.median_of(true, |p| p.build_s));
        out.set("mc.fixpoint_s", self.median_of(true, |p| p.fixpoint_s));
        out.set("image.kernel_s", self.median_of(true, |p| p.images_s));
        out.set(
            "subspace.join_s",
            self.median_of(true, |p| p.fixpoint_s - p.fixpoint_images_s),
        );
        counts.report(&mut out);
        for name in [
            "equiv.check_s",
            "pool.serial_jobs_per_s",
            "pool.speedup",
            "pool.memo_hit_rate",
            "pool.reach_ms_p50",
            "pool.invariant_ms_p50",
            "pool.equiv_ms_p50",
            "pool.image_ms_p50",
            "pool.repeat_ms_p50",
            "pool.worker_share_max",
        ] {
            out.set(name, 0.0);
        }
        out.set("proc.cpu_s", self.noise.cpu_s);
        out.set("proc.runq_wait_s", self.noise.wait_s);
        let overhead = self
            .median_of(true, |p| p.wall_s)
            .zip(deck_s)
            .map(|(t, u)| t - u);
        out.set("trace.overhead_s", overhead);
        out
    }
}
