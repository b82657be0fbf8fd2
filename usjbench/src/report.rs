//! Samples, metrics, run metadata and the result line.
//!
//! Every workload fills one [`Report`]: the correctness verdict, the
//! attempted/failed counts, and named metrics with units. Every metric is
//! printed as a detail line before the final JSON object; a metric built
//! from repeated samples also shows its sample count and min/median/max.
//! The JSON object carries exactly the metrics named to [`Report::print`]:
//! the ones `BENCHMARK.json` declares for the run's section.

use std::fmt::Write as _;

/// Repeated measurements of one quantity.
#[derive(Debug, Clone, Default)]
pub struct Samples(Vec<f64>);

impl Samples {
    /// An empty sample set.
    pub fn new() -> Self {
        Samples(Vec::new())
    }

    /// Adds one sample.
    pub fn push(&mut self, v: f64) {
        self.0.push(v);
    }

    /// All samples of several sets in one.
    pub fn pooled<'a>(sets: impl IntoIterator<Item = &'a Samples>) -> Samples {
        Samples(sets.into_iter().flat_map(|s| s.0.iter().copied()).collect())
    }

    /// The samples, in the order taken.
    pub fn iter(&self) -> impl Iterator<Item = f64> + '_ {
        self.0.iter().copied()
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// Whether no sample was taken.
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    fn sorted(&self) -> Vec<f64> {
        let mut v = self.0.clone();
        v.sort_by(f64::total_cmp);
        v
    }

    /// Nearest-rank quantile, `q` in `[0, 1]`; 0 for an empty set.
    pub fn quantile(&self, q: f64) -> f64 {
        let v = self.sorted();
        if v.is_empty() {
            return 0.0;
        }
        let rank = (q * v.len() as f64).ceil() as usize;
        v[rank.clamp(1, v.len()) - 1]
    }

    /// The median (the mean of the middle two for an even count).
    pub fn median(&self) -> f64 {
        let v = self.sorted();
        match v.len() {
            0 => 0.0,
            n if n % 2 == 1 => v[n / 2],
            n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
        }
    }

    /// The interquartile mean: the mean of the samples between the first
    /// and the third quartile. Unlike the median it does not jump when the
    /// samples fall in two clusters of about equal weight.
    pub fn interquartile_mean(&self) -> f64 {
        let v = self.sorted();
        let middle = &v[v.len() / 4..v.len() - v.len() / 4];
        if middle.is_empty() {
            0.0
        } else {
            middle.iter().sum::<f64>() / middle.len() as f64
        }
    }

    /// Smallest sample.
    pub fn min(&self) -> f64 {
        self.0.iter().copied().fold(f64::INFINITY, f64::min)
    }

    /// Largest sample.
    pub fn max(&self) -> f64 {
        self.0.iter().copied().fold(f64::NEG_INFINITY, f64::max)
    }
}

impl FromIterator<f64> for Samples {
    fn from_iter<I: IntoIterator<Item = f64>>(iter: I) -> Self {
        Samples(iter.into_iter().collect())
    }
}

struct Metric {
    name: String,
    value: f64,
    unit: &'static str,
    /// `(count, min, median, max)` when the value summarises samples.
    spread: Option<(usize, f64, f64, f64)>,
}

/// One workload's outcome.
pub struct Report {
    /// Requests or operations the workload attempted (pre-cancelled
    /// requests excluded).
    pub attempted: u64,
    /// Attempted operations that failed or were refused.
    pub failed: u64,
    metrics: Vec<Metric>,
    mismatches: Vec<String>,
    notes: Vec<String>,
}

impl Report {
    /// An empty, so far correct report.
    pub fn new() -> Self {
        Report {
            attempted: 0,
            failed: 0,
            metrics: Vec::new(),
            mismatches: Vec::new(),
            notes: Vec::new(),
        }
    }

    /// Records a correctness check; a failed check makes the run incorrect.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.mismatches.push(what());
        }
    }

    /// Whether every check passed.
    fn correct(&self) -> bool {
        self.mismatches.is_empty()
    }

    /// Adds a free-form line to the human-readable output.
    pub fn note(&mut self, line: impl Into<String>) {
        self.notes.push(line.into());
    }

    /// Records a single-valued metric.
    pub fn value(&mut self, name: &str, value: f64, unit: &'static str) {
        self.metrics.push(Metric {
            name: name.to_string(),
            value,
            unit,
            spread: None,
        });
    }

    /// Records `value`, a statistic of `samples`, keeping their spread.
    fn summary(&mut self, name: &str, samples: &Samples, value: f64, unit: &'static str) {
        self.check(!samples.is_empty(), || format!("{name}: no samples"));
        let spread = (
            samples.len(),
            samples.min(),
            samples.median(),
            samples.max(),
        );
        self.metrics.push(Metric {
            name: name.to_string(),
            value,
            unit,
            spread: Some(spread),
        });
    }

    /// Records the median of `samples` as the metric.
    pub fn median(&mut self, name: &str, samples: &Samples, unit: &'static str) {
        self.summary(name, samples, samples.median(), unit);
    }

    /// Records the interquartile mean of `samples` as the metric.
    pub fn interquartile_mean(&mut self, name: &str, samples: &Samples, unit: &'static str) {
        self.summary(name, samples, samples.interquartile_mean(), unit);
    }

    /// Records the `q` quantile of `samples` as the metric.
    pub fn quantile(&mut self, name: &str, samples: &Samples, q: f64, unit: &'static str) {
        self.summary(name, samples, samples.quantile(q), unit);
    }

    /// Prints the human-readable lines, then the result object as the last
    /// line of standard output. The object holds the metrics in `result`,
    /// in that order; a missing one makes the run incorrect.
    pub fn print(&mut self, meta: &str, result: &[(&str, &str)]) {
        for &(name, unit) in result {
            match self.metrics.iter().find(|m| m.name == name) {
                None => self.mismatches.push(format!("metric {name} not measured")),
                Some(m) if m.unit != unit => self
                    .mismatches
                    .push(format!("metric {name} in {}, declared in {unit}", m.unit)),
                Some(_) => {}
            }
        }
        println!("# meta {meta}");
        for note in &self.notes {
            println!("# {note}");
        }
        for m in &self.metrics {
            match m.spread {
                Some((n, min, median, max)) => println!(
                    "# {:<32} {:>14.4} {:<6} n={n} min={min:.4} median={median:.4} max={max:.4}",
                    m.name, m.value, m.unit
                ),
                None => println!("# {:<32} {:>14.4} {}", m.name, m.value, m.unit),
            }
        }
        for mismatch in &self.mismatches {
            println!("# MISMATCH {mismatch}");
        }
        println!("{}", self.to_json(result));
    }

    fn to_json(&self, result: &[(&str, &str)]) -> String {
        let mut metrics = String::new();
        let mut correct = self.correct();
        let chosen = result
            .iter()
            .filter_map(|&(name, _)| self.metrics.iter().find(|m| m.name == name));
        for (i, m) in chosen.enumerate() {
            // JSON has no NaN or infinity: a non-finite value is a defect.
            let value = if m.value.is_finite() {
                m.value
            } else {
                correct = false;
                0.0
            };
            if i > 0 {
                metrics.push_str(", ");
            }
            let _ = write!(
                metrics,
                "\"{}\": {{\"value\": {value:?}, \"unit\": \"{}\"}}",
                m.name, m.unit
            );
        }
        format!(
            "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}}}",
            self.attempted.max(1),
            self.failed
        )
    }
}

/// Run metadata: source revision, host and toolchain, as one JSON object.
pub fn run_meta(workload: &str, seed: u64, seconds: u64, trace: bool, scale: u64) -> String {
    let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    format!(
        "{{\"workload\": \"{workload}\", \"seed\": {seed}, \"seconds\": {seconds}, \
         \"trace\": {trace}, \"scale\": {scale}, \"commit\": \"{}\", \"nproc\": {threads}, \
         \"cpu\": \"{}\", \"rustc\": \"{}\"}}",
        commit(),
        cpu_model().replace('"', "'"),
        env!("USJBENCH_RUSTC")
    )
}

/// The checked-out revision, read from `.git` in the working directory
/// (the benchmark runs from the repository root); `unknown` outside a git
/// checkout.
fn commit() -> String {
    let read = |p: &str| {
        std::fs::read_to_string(p)
            .ok()
            .map(|s| s.trim().to_string())
    };
    let Some(head) = read(".git/HEAD") else {
        return "unknown".to_string();
    };
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head;
    };
    read(&format!(".git/{reference}"))
        .or_else(|| {
            read(".git/packed-refs")?
                .lines()
                .find(|l| l.ends_with(reference))
                .and_then(|l| l.split_whitespace().next().map(str::to_string))
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// The CPU brand string from `cpuid` (x86-64), without reading any file.
#[cfg(target_arch = "x86_64")]
fn cpu_model() -> String {
    use std::arch::x86_64::__cpuid;
    // Leaf 0x8000_0000 reports whether the brand-string leaves exist.
    let max_ext = __cpuid(0x8000_0000).eax;
    if max_ext < 0x8000_0004 {
        return "unknown".to_string();
    }
    let mut bytes = Vec::with_capacity(48);
    for leaf in 0x8000_0002u32..=0x8000_0004 {
        let r = __cpuid(leaf);
        for reg in [r.eax, r.ebx, r.ecx, r.edx] {
            bytes.extend_from_slice(&reg.to_le_bytes());
        }
    }
    let brand = String::from_utf8_lossy(&bytes);
    brand.trim_matches(char::from(0)).trim().to_string()
}

#[cfg(not(target_arch = "x86_64"))]
fn cpu_model() -> String {
    "unknown".to_string()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_use_nearest_rank() {
        let mut s = Samples::new();
        for v in 1..=100 {
            s.push(f64::from(v));
        }
        assert_eq!(s.quantile(0.5), 50.0);
        assert_eq!(s.quantile(0.99), 99.0);
        assert_eq!(s.quantile(1.0), 100.0);
        assert_eq!(s.median(), 50.5);
        assert_eq!(s.interquartile_mean(), 50.5);
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let mut r = Report::new();
        r.attempted = 3;
        r.value("a_ms", 1.5, "ms");
        r.value("detail_ms", 2.5, "ms");
        let json = r.to_json(&[("a_ms", "ms")]);
        assert!(json.starts_with("{\"correct\": true, \"attempted\": 3, \"failed\": 0"));
        assert!(json.contains("\"a_ms\": {\"value\": 1.5, \"unit\": \"ms\"}"));
        assert!(
            !json.contains("detail_ms"),
            "only the named metrics: {json}"
        );
        r.check(false, || "boom".to_string());
        assert!(r.to_json(&[]).starts_with("{\"correct\": false"));
    }
}
