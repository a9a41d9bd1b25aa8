//! Pieces every workload shares: the instance builder, order statistics,
//! the run report, the benchmark's own in-memory spans, and readers for
//! the process's peak memory and the `imc_obs` registry.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;
use std::time::Instant;

use imc_community::{BenefitPolicy, CommunitySet, ThresholdPolicy};
use imc_core::ImcInstance;
use imc_datasets::DatasetId;
use imc_graph::WeightModel;

/// The dataset seed of every instance. The workload seed drives the
/// sampling and query inputs; the instance stays fixed so its identity
/// counts (`instance.nodes` / `edges` / `communities`) name the workload.
const INSTANCE_SEED: u64 = 1;

/// A built instance and how long each part took.
pub struct BuiltInstance {
    pub instance: ImcInstance,
    pub build_s: f64,
    pub louvain_s: f64,
}

/// Builds the Wiki-Vote analog at `scale` exactly as the cluster runner
/// does: weighted-cascade weights, Louvain communities split at size 8,
/// threshold 2, population benefits.
pub fn build_instance(scale: f64) -> BuiltInstance {
    let started = Instant::now();
    let graph = imc_datasets::generate(DatasetId::WikiVote, scale, INSTANCE_SEED)
        .reweighted(WeightModel::WeightedCascade);
    let louvain_started = Instant::now();
    let communities = CommunitySet::builder(&graph)
        .louvain(INSTANCE_SEED)
        .split_larger_than(8)
        .threshold(ThresholdPolicy::Constant(2))
        .benefit(BenefitPolicy::Population)
        .build()
        .expect("Louvain communities of a generated graph");
    let louvain_s = louvain_started.elapsed().as_secs_f64();
    let instance = ImcInstance::new(graph, communities).expect("consistent instance");
    BuiltInstance {
        instance,
        build_s: started.elapsed().as_secs_f64(),
        louvain_s,
    }
}

/// Linear-interpolated quantile of `values` (`q` in `[0, 1]`); `0.0`
/// for an empty slice.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// Prints a metric's individual samples to stderr, so a run's spread can
/// be read next to its median.
pub fn show_samples(name: &str, values: &[f64]) {
    let shown: Vec<String> = values.iter().map(|v| format!("{v:.4}")).collect();
    eprintln!("perfbench: {name} samples [{}]", shown.join(", "));
}

/// `num / den`, or `0.0` when `den` is zero.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// The CPU time counters of `/proc/stat` (jiffies, all CPUs), `None`
/// where `/proc` is unavailable.
pub fn cpu_times() -> Option<Vec<u64>> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let line = stat.lines().find(|l| l.starts_with("cpu "))?;
    Some(
        line.split_whitespace()
            .skip(1)
            .filter_map(|v| v.parse().ok())
            .collect(),
    )
}

/// The share of CPU time the hypervisor took from this machine (steal,
/// the 8th counter) between two [`cpu_times`] readings.
pub fn steal_share(before: &[u64], after: &[u64]) -> f64 {
    let delta: Vec<f64> = after
        .iter()
        .zip(before)
        .map(|(a, b)| a.saturating_sub(*b) as f64)
        .collect();
    ratio(delta.get(7).copied().unwrap_or(0.0), delta.iter().sum())
}

/// Peak resident set of this process in MB (`VmHWM`), `0.0` where
/// `/proc` is unavailable.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Sum of every series of `name` in a Prometheus text exposition of the
/// global `imc_obs` registry (labels are summed over). Histograms are
/// read through their `_sum` / `_count` series.
pub struct Registry {
    series: BTreeMap<String, f64>,
}

impl Registry {
    pub fn read() -> Self {
        let text = imc_obs::encode::to_prometheus(imc_obs::global());
        let mut series = BTreeMap::new();
        for line in text.lines().filter(|l| !l.starts_with('#')) {
            let Some((key, value)) = line.rsplit_once(' ') else {
                continue;
            };
            let name = key.split('{').next().unwrap_or(key);
            if let Ok(v) = value.parse::<f64>() {
                *series.entry(name.to_string()).or_insert(0.0) += v;
            }
        }
        Registry { series }
    }

    pub fn get(&self, name: &str) -> f64 {
        self.series.get(name).copied().unwrap_or(0.0)
    }

    /// `self[name] − before[name]`: what the program counted in between.
    pub fn delta(&self, before: &Registry, name: &str) -> f64 {
        self.get(name) - before.get(name)
    }
}

/// One recorded span: a layer boundary the benchmark called across.
struct SpanRec {
    name: String,
    parent: Option<usize>,
    start_us: u64,
    end_us: u64,
}

/// The benchmark's own spans, kept in memory and written out once at the
/// end of a traced run. When off, `open`/`close` still time the call (the
/// caller needs the seconds) but record nothing.
pub struct Tracer {
    on: bool,
    epoch: Instant,
    spans: Vec<SpanRec>,
    stack: Vec<usize>,
}

/// An open span; hand it back to [`Tracer::close`].
pub struct Open {
    index: Option<usize>,
    started: Instant,
}

impl Tracer {
    pub fn new(on: bool) -> Self {
        Tracer {
            on,
            epoch: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    pub fn is_on(&self) -> bool {
        self.on
    }

    fn us(&self, at: Instant) -> u64 {
        u64::try_from(at.duration_since(self.epoch).as_micros()).unwrap_or(u64::MAX)
    }

    /// Opens a span nested in the innermost open one.
    pub fn open(&mut self, name: &str) -> Open {
        let started = Instant::now();
        let index = self.on.then(|| {
            self.spans.push(SpanRec {
                name: name.to_string(),
                parent: self.stack.last().copied(),
                start_us: self.us(started),
                end_us: 0,
            });
            self.spans.len() - 1
        });
        if let Some(i) = index {
            self.stack.push(i);
        }
        Open { index, started }
    }

    /// Closes `open`; returns its duration in seconds.
    pub fn close(&mut self, open: Open) -> f64 {
        let ended = Instant::now();
        if let Some(i) = open.index {
            self.spans[i].end_us = self.us(ended);
            self.stack.retain(|&s| s != i);
        }
        ended.duration_since(open.started).as_secs_f64()
    }

    /// Times `f` under a span named `name`.
    pub fn time<T>(&mut self, name: &str, f: impl FnOnce() -> T) -> (T, f64) {
        let open = self.open(name);
        let value = f();
        (value, self.close(open))
    }

    /// Records a finished span measured elsewhere (another thread, or a
    /// request timed by the load generator), under the innermost open span.
    pub fn record(&mut self, name: &str, start: Instant, end: Instant) {
        if self.on {
            self.spans.push(SpanRec {
                name: name.to_string(),
                parent: self.stack.last().copied(),
                start_us: self.us(start),
                end_us: self.us(end),
            });
        }
    }

    pub fn span_count(&self) -> usize {
        self.spans.len()
    }

    /// Writes the spans as JSON lines (`id`, `parent`, `name`, `start_us`,
    /// `end_us`, `self_us`) and returns the bytes written. Self time is
    /// the span's duration minus the part its children cover.
    pub fn write(&self, path: &Path) -> std::io::Result<u64> {
        let mut child_us = vec![0u64; self.spans.len()];
        for span in &self.spans {
            if let Some(p) = span.parent {
                child_us[p] += span.end_us.saturating_sub(span.start_us);
            }
        }
        let mut out = String::new();
        for (i, span) in self.spans.iter().enumerate() {
            let dur = span.end_us.saturating_sub(span.start_us);
            let parent = span.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"id\":{i},\"parent\":{parent},\"name\":\"{}\",\"start_us\":{},\"end_us\":{},\"self_us\":{}}}",
                span.name,
                span.start_us,
                span.end_us,
                dur.saturating_sub(child_us[i])
            );
        }
        std::fs::write(path, &out)?;
        Ok(out.len() as u64)
    }
}

/// What one run measured and checked.
#[derive(Default)]
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    failures: Vec<String>,
    pub metrics: Vec<(String, f64, String)>,
    /// Bytes and lines the program's own trace sink produced.
    pub sink_bytes: u64,
    pub sink_events: u64,
}

impl Report {
    /// Counts one attempted operation whose outcome is `ok`; a failed one
    /// is recorded with `what` (built only on failure).
    pub fn op(&mut self, ok: bool, what: impl FnOnce() -> String) -> bool {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            self.failures.push(what());
        }
        ok
    }

    /// Counts `count` attempted operations that all failed, recorded once
    /// with `what`.
    pub fn fail_many(&mut self, count: usize, what: impl FnOnce() -> String) {
        self.attempted += count as u64;
        self.failed += count as u64;
        self.failures.push(what());
    }

    pub fn metric(&mut self, name: &str, value: f64, unit: &str) {
        self.metrics
            .push((name.to_string(), value, unit.to_string()));
    }

    pub fn failures(&self) -> &[String] {
        &self.failures
    }
}

/// An in-memory trace sink for the program's own `imc_obs::trace`
/// events: installed for a traced phase, read back afterwards.
#[derive(Clone, Default)]
pub struct MemorySink(std::sync::Arc<std::sync::Mutex<Vec<u8>>>);

impl MemorySink {
    /// Installs this sink as the process trace sink.
    pub fn install(&self) {
        imc_obs::trace::set_sink_writer(Box::new(self.clone()));
    }

    pub fn contents(&self) -> Vec<u8> {
        self.0.lock().expect("trace sink poisoned").clone()
    }
}

impl std::io::Write for MemorySink {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.0
            .lock()
            .expect("trace sink poisoned")
            .extend_from_slice(buf);
        Ok(buf.len())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}
