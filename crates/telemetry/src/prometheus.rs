//! Prometheus text exposition (version 0.0.4) rendering.
//!
//! [`PromText`] is a small append-only builder producing the line protocol
//! a Prometheus scraper ingests: `# HELP` / `# TYPE` comments followed by
//! `name{label="value",...} value` samples. The admission server renders
//! its counters through it (`fedsched-service::stats::render_prometheus`),
//! and [`render_probe`] maps the platform-lifetime
//! [`AnalysisProbe`] onto stable `fedsched_analysis_*` metric names.
//!
//! [`validate_exposition`] is the inverse guard: it checks that every line
//! of an exposition is either a comment or a well-formed sample, which the
//! service smoke test runs against a live scrape.

use core::fmt::Write as _;

use fedsched_analysis::probe::AnalysisProbe;

/// A Prometheus text-exposition builder.
#[derive(Debug, Default)]
pub struct PromText {
    out: String,
}

impl PromText {
    /// An empty exposition.
    #[must_use]
    pub fn new() -> PromText {
        PromText::default()
    }

    /// Emits the `# HELP` and `# TYPE` header for a metric family.
    /// `kind` is one of `counter`, `gauge`, `histogram`.
    pub fn header(&mut self, name: &str, help: &str, kind: &str) {
        let _ = writeln!(self.out, "# HELP {name} {help}");
        let _ = writeln!(self.out, "# TYPE {name} {kind}");
    }

    /// Emits one integer sample, with optional labels.
    pub fn sample(&mut self, name: &str, labels: &[(&str, &str)], value: u64) {
        self.write_name_labels(name, labels);
        let _ = writeln!(self.out, " {value}");
    }

    /// Emits one floating-point sample, with optional labels.
    pub fn sample_f64(&mut self, name: &str, labels: &[(&str, &str)], value: f64) {
        self.write_name_labels(name, labels);
        if value == f64::INFINITY {
            let _ = writeln!(self.out, " +Inf");
        } else {
            let _ = writeln!(self.out, " {value}");
        }
    }

    fn write_name_labels(&mut self, name: &str, labels: &[(&str, &str)]) {
        self.out.push_str(name);
        if !labels.is_empty() {
            self.out.push('{');
            for (i, (k, v)) in labels.iter().enumerate() {
                if i > 0 {
                    self.out.push(',');
                }
                let _ = write!(self.out, "{k}=\"{}\"", escape_label(v));
            }
            self.out.push('}');
        }
    }

    /// Renders a power-of-two histogram (bucket `i` counting observations
    /// in `[2^i, 2^{i+1})`, last bucket open-ended) as a Prometheus
    /// cumulative histogram in the same unit. The `_sum` sample is the
    /// upper-bound estimate (every observation priced at its bucket's
    /// exclusive upper bound), consistent with the quantile semantics
    /// documented on the service's latency histogram.
    pub fn power_of_two_histogram(&mut self, name: &str, help: &str, buckets: &[u64]) {
        self.header(name, help, "histogram");
        let mut cumulative = 0u64;
        let mut sum_upper = 0u64;
        let last = buckets.len().saturating_sub(1);
        for (i, &count) in buckets.iter().enumerate() {
            cumulative += count;
            let upper = 2u64.saturating_pow(i as u32 + 1);
            sum_upper = sum_upper.saturating_add(count.saturating_mul(upper));
            if i < last {
                self.sample(
                    &format!("{name}_bucket"),
                    &[("le", &upper.to_string())],
                    cumulative,
                );
            }
        }
        self.sample(&format!("{name}_bucket"), &[("le", "+Inf")], cumulative);
        self.sample(&format!("{name}_sum"), &[], sum_upper);
        self.sample(&format!("{name}_count"), &[], cumulative);
    }

    /// The finished exposition text.
    #[must_use]
    pub fn finish(self) -> String {
        self.out
    }
}

/// Escapes a label value per the exposition format (backslash, quote,
/// newline).
fn escape_label(v: &str) -> String {
    v.replace('\\', "\\\\")
        .replace('"', "\\\"")
        .replace('\n', "\\n")
}

/// Renders the cumulative [`AnalysisProbe`] counters under stable
/// `<prefix>_*` metric names (the service uses prefix `fedsched_analysis`).
pub fn render_probe(prefix: &str, probe: &AnalysisProbe, out: &mut PromText) {
    let counters: [(&str, &str, u64); 12] = [
        (
            "ls_runs",
            "Graham List-Scheduling simulations run",
            probe.ls_runs,
        ),
        (
            "makespan_evaluations",
            "Makespan-versus-deadline template evaluations",
            probe.makespan_evaluations,
        ),
        (
            "ls_runs_pruned",
            "MINPROCS candidates eliminated by Graham bounds without an LS run",
            probe.ls_runs_pruned,
        ),
        (
            "par_tasks_dispatched",
            "Work items offered to a parallel analysis fan-out (0: the analysis runs on the calling thread)",
            probe.par_tasks_dispatched,
        ),
        (
            "dbf_approx_evals",
            "DBF* demand terms covered by first-fit tests",
            probe.dbf_approx_evals,
        ),
        (
            "dbf_exact_evals",
            "Exact demand-bound evaluations (QPA / deadline walk)",
            probe.dbf_exact_evals,
        ),
        (
            "fits_calls",
            "First-fit admission tests against resident sets",
            probe.fits_calls,
        ),
        ("cache_hits", "Template-cache hits", probe.cache_hits),
        ("cache_misses", "Template-cache misses", probe.cache_misses),
        (
            "sizing_nanos",
            "Wall time in MINPROCS cluster sizing, nanoseconds",
            probe.sizing_nanos,
        ),
        (
            "partition_nanos",
            "Wall time in first-fit partitioning, nanoseconds",
            probe.partition_nanos,
        ),
        (
            "wall_nanos",
            "Total analysis wall time, nanoseconds",
            probe.wall_nanos,
        ),
    ];
    for (name, help, value) in counters {
        let full = format!("{prefix}_{name}_total");
        out.header(&full, help, "counter");
        out.sample(&full, &[], value);
    }
}

/// Checks that every line of `text` is a valid exposition line: empty, a
/// `#` comment, or `name{labels} value` with a parseable number.
///
/// # Errors
///
/// The first offending line, quoted.
pub fn validate_exposition(text: &str) -> Result<(), String> {
    for line in text.lines() {
        let line = line.trim_end();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let (series, value) = line
            .rsplit_once(' ')
            .ok_or_else(|| format!("no value separator in {line:?}"))?;
        if !(value == "+Inf" || value == "-Inf" || value == "NaN" || value.parse::<f64>().is_ok()) {
            return Err(format!("unparseable value {value:?} in {line:?}"));
        }
        let name = series.split('{').next().unwrap_or_default();
        if name.is_empty()
            || !name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':')
            || name.starts_with(|c: char| c.is_ascii_digit())
        {
            return Err(format!("invalid metric name {name:?} in {line:?}"));
        }
        if let Some(rest) = series.strip_prefix(name) {
            if !(rest.is_empty() || rest.starts_with('{') && rest.ends_with('}')) {
                return Err(format!("malformed label block {rest:?} in {line:?}"));
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn samples_and_headers_format_correctly() {
        let mut p = PromText::new();
        p.header("jobs_total", "Jobs seen", "counter");
        p.sample("jobs_total", &[], 42);
        p.sample("jobs_total", &[("kind", "high"), ("ok", "yes")], 7);
        p.sample_f64("ratio", &[], 0.5);
        let text = p.finish();
        assert!(text.contains("# HELP jobs_total Jobs seen\n"));
        assert!(text.contains("# TYPE jobs_total counter\n"));
        assert!(
            text.contains("\njobs_total 42\n") || text.starts_with("jobs_total 42\n") || {
                text.lines().any(|l| l == "jobs_total 42")
            }
        );
        assert!(text
            .lines()
            .any(|l| l == "jobs_total{kind=\"high\",ok=\"yes\"} 7"));
        assert!(text.lines().any(|l| l == "ratio 0.5"));
        validate_exposition(&text).unwrap();
    }

    #[test]
    fn label_values_are_escaped() {
        let mut p = PromText::new();
        p.sample("m", &[("reason", "a \"quoted\"\nthing\\x")], 1);
        let text = p.finish();
        assert!(
            text.contains(r#"reason="a \"quoted\"\nthing\\x""#),
            "{text}"
        );
        validate_exposition(&text).unwrap();
    }

    #[test]
    fn power_of_two_histogram_is_cumulative_with_inf() {
        let mut p = PromText::new();
        // bucket 0: [1,2) ×3, bucket 1: [2,4) ×1, bucket 2 (last): ×2.
        p.power_of_two_histogram("lat_us", "latency", &[3, 1, 2]);
        let text = p.finish();
        assert!(text.lines().any(|l| l == "lat_us_bucket{le=\"2\"} 3"));
        assert!(text.lines().any(|l| l == "lat_us_bucket{le=\"4\"} 4"));
        assert!(text.lines().any(|l| l == "lat_us_bucket{le=\"+Inf\"} 6"));
        assert!(text.lines().any(|l| l == "lat_us_count 6"));
        // sum upper bound: 3·2 + 1·4 + 2·8 = 26.
        assert!(text.lines().any(|l| l == "lat_us_sum 26"));
        validate_exposition(&text).unwrap();
    }

    #[test]
    fn probe_rendering_emits_every_counter() {
        let probe = AnalysisProbe {
            ls_runs: 3,
            wall_nanos: 500,
            ..AnalysisProbe::default()
        };
        let mut p = PromText::new();
        render_probe("fedsched_analysis", &probe, &mut p);
        let text = p.finish();
        for name in [
            "ls_runs",
            "makespan_evaluations",
            "ls_runs_pruned",
            "par_tasks_dispatched",
            "dbf_approx_evals",
            "dbf_exact_evals",
            "fits_calls",
            "cache_hits",
            "cache_misses",
            "sizing_nanos",
            "partition_nanos",
            "wall_nanos",
        ] {
            assert!(
                text.contains(&format!("fedsched_analysis_{name}_total")),
                "missing {name}"
            );
        }
        assert!(text
            .lines()
            .any(|l| l == "fedsched_analysis_ls_runs_total 3"));
        validate_exposition(&text).unwrap();
    }

    #[test]
    fn validator_rejects_malformed_lines() {
        assert!(validate_exposition("ok_metric 1\n# comment\n\n").is_ok());
        assert!(validate_exposition("novalue\n").is_err());
        assert!(validate_exposition("metric notanumber\n").is_err());
        assert!(validate_exposition("1leading_digit 2\n").is_err());
        assert!(validate_exposition("bad-name 2\n").is_err());
        assert!(validate_exposition("m{unclosed=\"x\" 2\n").is_err());
        assert!(validate_exposition("m{a=\"b\"} +Inf\n").is_ok());
    }
}
