//! Measurement helpers: medians and refused percentiles, the process's
//! scheduler counters, in-memory spans, and the metric set a run prints.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::{Duration, Instant};

use crate::check::Tally;

/// A percentile is reported only when at least this many samples lie
/// beyond it.
pub const MIN_BEYOND: usize = 10;

/// The end-to-end metrics, printed by an untraced run: `(name, unit)`.
pub const END_TO_END: [(&str, &str); 6] = [
    ("setup_s", "s"),
    ("deck_s", "s"),
    ("jobs_per_s", "1/s"),
    ("job_ms_p50", "ms"),
    ("job_ms_p99", "ms"),
    ("peak_arena_nodes", "count"),
];

/// The per-layer metrics, printed by a traced run: `(name, unit)`.
pub const PER_LAYER: [(&str, &str); 28] = [
    ("circuit.spec_s", "s"),
    ("engine.build_s", "s"),
    ("mc.fixpoint_s", "s"),
    ("mc.iterations", "count"),
    ("image.kernel_s", "s"),
    ("image.calls", "count"),
    ("image.branches", "count"),
    ("image.max_nodes", "count"),
    ("subspace.join_s", "s"),
    ("tdd.nodes_created", "count"),
    ("tdd.cont_lookups", "count"),
    ("tdd.cont_hit_rate", "ratio"),
    ("tdd.add_lookups", "count"),
    ("tdd.add_hit_rate", "ratio"),
    ("tdd.probe_p99", "cells"),
    ("equiv.check_s", "s"),
    ("pool.serial_jobs_per_s", "1/s"),
    ("pool.speedup", "ratio"),
    ("pool.memo_hit_rate", "ratio"),
    ("pool.reach_ms_p50", "ms"),
    ("pool.invariant_ms_p50", "ms"),
    ("pool.equiv_ms_p50", "ms"),
    ("pool.image_ms_p50", "ms"),
    ("pool.repeat_ms_p50", "ms"),
    ("pool.worker_share_max", "ratio"),
    ("proc.cpu_s", "s"),
    ("proc.runq_wait_s", "s"),
    ("trace.overhead_s", "s"),
];

/// The median of `samples`, `None` when there are none.
pub fn median(samples: &[f64]) -> Option<f64> {
    quantile(samples, 0.5)
}

/// The `p`-quantile of `samples`, interpolating between closest ranks,
/// or `None` when fewer than [`MIN_BEYOND`] samples lie beyond it.
pub fn percentile(samples: &[f64], p: f64) -> Option<f64> {
    let rank = p * samples.len().checked_sub(1)? as f64;
    if samples.len() - 1 - rank.floor() as usize >= MIN_BEYOND {
        quantile(samples, p)
    } else {
        None
    }
}

fn quantile(samples: &[f64], p: f64) -> Option<f64> {
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    let rank = p * s.len().checked_sub(1)? as f64;
    let lo = rank.floor() as usize;
    let hi = (lo + 1).min(s.len() - 1);
    Some(s[lo] + (s[hi] - s[lo]) * (rank - lo as f64))
}

/// A ratio, or 0 for an empty base.
pub fn ratio(part: f64, base: f64) -> f64 {
    if base > 0.0 {
        part / base
    } else {
        0.0
    }
}

/// On-CPU and run-queue-wait time summed over the process's live threads
/// (fields 1 and 2 of `/proc/self/task/*/schedstat`); zero where the
/// kernel does not provide them.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct SchedStat {
    pub cpu_s: f64,
    pub wait_s: f64,
}

impl SchedStat {
    /// The counters now. Threads that already exited are not included, so
    /// read both ends of an interval while its threads are alive.
    pub fn now() -> SchedStat {
        let mut total = SchedStat::default();
        let Ok(tasks) = std::fs::read_dir("/proc/self/task") else {
            return total;
        };
        for task in tasks.flatten() {
            let Ok(text) = std::fs::read_to_string(task.path().join("schedstat")) else {
                continue;
            };
            let mut fields = text
                .split_whitespace()
                .map(|f| f.parse::<u64>().unwrap_or(0));
            total.cpu_s += fields.next().unwrap_or(0) as f64 * 1e-9;
            total.wait_s += fields.next().unwrap_or(0) as f64 * 1e-9;
        }
        total
    }

    /// The movement since `earlier`.
    pub fn since(self, earlier: SchedStat) -> SchedStat {
        SchedStat {
            cpu_s: self.cpu_s - earlier.cpu_s,
            wait_s: self.wait_s - earlier.wait_s,
        }
    }
}

/// One timed interval of the run, kept in memory until the run ends.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: String,
    pub parent: Option<usize>,
    pub start: Duration,
    pub end: Duration,
    /// Σ of the images computed inside the span, as the program's
    /// `ImageStats` report them (property spans only).
    pub images: Option<Duration>,
}

/// The spans of a traced run, relative to its start.
#[derive(Debug, Clone)]
pub struct Trace {
    origin: Instant,
    spans: Vec<Span>,
}

impl Trace {
    pub fn new(origin: Instant) -> Trace {
        Trace {
            origin,
            spans: Vec::new(),
        }
    }

    /// Opens a span now; [`Trace::close`] ends it.
    pub fn open(&mut self, name: impl Into<String>, parent: Option<usize>) -> usize {
        let now = Instant::now();
        self.record(name, parent, now, now)
    }

    /// Ends span `id` now.
    pub fn close(&mut self, id: usize) {
        self.spans[id].end = self.origin.elapsed();
    }

    /// Records a finished span.
    pub fn record(
        &mut self,
        name: impl Into<String>,
        parent: Option<usize>,
        start: Instant,
        end: Instant,
    ) -> usize {
        self.spans.push(Span {
            name: name.into(),
            parent,
            start: start.duration_since(self.origin),
            end: end.duration_since(self.origin),
            images: None,
        });
        self.spans.len() - 1
    }

    /// Attaches the image time computed inside span `id`.
    pub fn set_images(&mut self, id: usize, images: Duration) {
        self.spans[id].images = Some(images);
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Writes one JSON object per span. A property span's `self_s` is its
    /// duration minus its images'.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let mut line = format!(
                "{{\"id\": {id}, \"parent\": {parent}, \"name\": \"{}\", \"start_s\": {}, \"end_s\": {}",
                s.name,
                s.start.as_secs_f64(),
                s.end.as_secs_f64()
            );
            if let Some(images) = s.images {
                let own = s.end.saturating_sub(s.start).saturating_sub(images);
                line += &format!(
                    ", \"images_s\": {}, \"self_s\": {}",
                    images.as_secs_f64(),
                    own.as_secs_f64()
                );
            }
            writeln!(out, "{line}}}")?;
        }
        out.flush()
    }
}

/// What one run measured.
#[derive(Debug, Clone, Default)]
pub struct Outcome {
    pub tally: Tally,
    /// Metric values by name; `None` where a percentile was refused.
    pub metrics: BTreeMap<&'static str, Option<f64>>,
}

impl Outcome {
    pub fn set(&mut self, name: &'static str, value: impl Into<Option<f64>>) {
        self.metrics.insert(name, value.into());
    }

    /// The value of a metric, if it was measured.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.metrics.get(name).copied().flatten()
    }

    /// The result line: the tally plus every metric of the traced or
    /// untraced set. Fails if one of them is missing, refused or not
    /// finite.
    pub fn result_line(&self, traced: bool) -> Result<String, String> {
        let set: &[(&str, &str)] = if traced { &PER_LAYER } else { &END_TO_END };
        let mut fields = Vec::with_capacity(set.len());
        for &(name, unit) in set {
            let value = self
                .get(name)
                .filter(|v| v.is_finite())
                .ok_or_else(|| format!("metric {name} was not measured"))?;
            fields.push(format!(
                "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
            ));
        }
        Ok(format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.tally.failed == 0,
            self.tally.attempted,
            self.tally.failed,
            fields.join(", ")
        ))
    }
}
