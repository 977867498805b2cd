//! Every metric the benchmark reports: name, unit, direction, and — for
//! the end-to-end ones — the regression bound. `BENCHMARK.json` at the
//! repository root is generated from this table (`grdbench manifest`) and
//! a test keeps the two identical.

use crate::surface::layer::TRANSPORTS;
use crate::traced::Class;
use crate::workloads::Workload;

#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: String,
    pub unit: &'static str,
    /// `"lower"` or `"higher"`.
    pub better: &'static str,
    /// Share of the parent's median by which the metric may get worse
    /// (end-to-end metrics only).
    pub bound: Option<f64>,
}

const LOWER: &str = "lower";
const HIGHER: &str = "higher";

/// Seconds one run measures, as `BENCHMARK.json` tells the driver.
pub const RUN_SECONDS: u64 = 20;

fn metric(name: impl Into<String>, unit: &'static str, better: &'static str) -> Metric {
    Metric {
        name: name.into(),
        unit,
        better,
        bound: None,
    }
}

/// What a tenant sees, on every workload. Bounds come from
/// `grdbench repeat` (README, "How the bounds were set").
pub fn end_to_end() -> Vec<Metric> {
    [
        ("wall_s", "s", 0.12),
        ("native_wall_s", "s", 0.20),
        ("overhead_x", "x", 0.15),
        ("setup_s", "s", 0.25),
        ("daemon_rss_mib", "MiB", 0.20),
    ]
    .into_iter()
    .map(|(name, unit, bound)| Metric {
        bound: Some(bound),
        ..metric(name, unit, LOWER)
    })
    .collect()
}

/// Single layers, from the traced pass and the layer pass.
pub fn per_layer() -> Vec<Metric> {
    let mut m = Vec::new();
    // Traced pass: the tenant-side API boundary, both arms, by call class.
    for side in ["grdlib", "native"] {
        for class in Class::ALL {
            m.push(metric(
                format!("{side}.{}.calls", class.name()),
                "count",
                LOWER,
            ));
            m.push(metric(
                format!("{side}.{}.busy_s", class.name()),
                "s",
                LOWER,
            ));
        }
    }
    m.extend([
        metric("app.self_s", "s", LOWER),
        metric("native.app.self_s", "s", LOWER),
        metric("grdlib.h2d.bytes", "B", LOWER),
        metric("grdlib.d2h.bytes", "B", LOWER),
        metric("guardiand.cpu_s", "s", LOWER),
        metric("client.cpu_s", "s", LOWER),
        metric("gpu_sim.instructions", "count", LOWER),
        metric("gpu_sim.interp_minstr_per_s", "Minstr/s", HIGHER),
        metric("gpu_sim.sim_cycles.guardian", "cycles", LOWER),
        metric("gpu_sim.sim_cycles.native", "cycles", LOWER),
        metric("stack_overhead_x", "x", LOWER),
        metric("fence_overhead_x", "x", LOWER),
        metric("traced.overhead_s", "s", LOWER),
        metric("unattributed_s", "s", LOWER),
        metric("bench.trace_overhead_x", "x", LOWER),
        metric("bench.rounds", "count", HIGHER),
    ]);
    // Workload-specific tenant-side numbers. They are what the issue calls
    // end-to-end, but an end-to-end metric must be defined (and never 0)
    // on every workload, so they are reported here: 0 where the workload
    // does not exercise them.
    m.extend([
        metric("sim_overhead_x", "x", LOWER),
        metric("launches_per_s", "1/s", HIGHER),
        metric("launches_per_s_shm", "1/s", HIGHER),
        metric("batch_sync_us_p50", "us", LOWER),
        metric("batch_sync_us_p99", "us", LOWER),
        metric("batch_sync_us.samples", "count", HIGHER),
        metric("h2d_MBps", "MB/s", HIGHER),
        metric("d2h_MBps", "MB/s", HIGHER),
        metric("rtt_us_p50", "us", LOWER),
        metric("rtt_us_p99", "us", LOWER),
        metric("rtt_us.samples", "count", HIGHER),
        metric("alloc_free_us_p50", "us", LOWER),
        metric("alloc_free_us.samples", "count", HIGHER),
        metric("fail_share", "share", LOWER),
    ]);
    // Layer pass: public functions of each layer, timed from outside.
    m.extend([
        metric("ptx.parse_us_per_kernel", "us", LOWER),
        metric("ptx_patcher.patch_us_per_kernel", "us", LOWER),
        metric("ptx_patcher.instr_growth_x", "x", LOWER),
        metric("gpu_sim.compile_us_per_kernel", "us", LOWER),
        metric("gpu_sim.launch_ns", "ns", LOWER),
        metric("gpu_sim.fenced_interp_x", "x", LOWER),
        metric("proto.encode_launch_ns", "ns", LOWER),
        metric("proto.decode_launch_ns", "ns", LOWER),
        metric("frame.decode_ns_per_frame", "ns", LOWER),
    ]);
    for t in TRANSPORTS {
        m.push(metric(format!("transport.{t}.rtt_us"), "us", LOWER));
        m.push(metric(format!("transport.{t}.frames_per_s"), "1/s", HIGHER));
        m.push(metric(format!("transport.{t}.MBps"), "MB/s", HIGHER));
    }
    m.extend([
        metric("alloc.buddy_ns", "ns", LOWER),
        metric("alloc.region_ns", "ns", LOWER),
        metric("manager.connect_us", "us", LOWER),
        metric("manager.malloc_free_us", "us", LOWER),
        metric("manager.register_first_ms", "ms", LOWER),
        metric("manager.register_repeat_ms", "ms", LOWER),
        metric("session.idle_sync_us", "us", LOWER),
        metric("exec_session.launch_ns", "ns", LOWER),
        metric("telemetry.record_ns", "ns", LOWER),
    ]);
    m
}

/// Measured values of one run, by metric name.
#[derive(Debug, Default)]
pub struct Values(Vec<(String, f64)>);

impl Values {
    pub fn set(&mut self, name: impl Into<String>, value: f64) {
        let name = name.into();
        debug_assert!(self.get(&name).is_none(), "{name} set twice");
        // A ratio over an empty arm must not print as NaN or inf.
        self.0
            .push((name, if value.is_finite() { value } else { 0.0 }));
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.iter().find(|(n, _)| n == name).map(|(_, v)| *v)
    }
}

fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// The result line: every metric of `defs`, taken from `values`.
///
/// # Panics
///
/// When a defined metric was not measured — a bug in the benchmark.
pub fn result_json(
    defs: &[Metric],
    values: &Values,
    correct: bool,
    attempted: u64,
    failed: u64,
) -> String {
    let metrics: Vec<String> = defs
        .iter()
        .map(|d| {
            let v = values
                .get(&d.name)
                .unwrap_or_else(|| panic!("metric {} was not measured", d.name));
            format!(
                "{}: {{\"value\": {v}, \"unit\": {}}}",
                json_str(&d.name),
                json_str(d.unit)
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \
         \"metrics\": {{{}}}}}",
        metrics.join(", ")
    )
}

/// The end-to-end values on a result line this program printed, or
/// `None` if `line` is not a correct run's result.
pub fn parse_result(line: &str) -> Option<Vec<(String, f64)>> {
    if !line.starts_with("{\"correct\": true,") {
        return None;
    }
    end_to_end()
        .into_iter()
        .map(|d| {
            let key = format!("{}: {{\"value\": ", json_str(&d.name));
            let rest = &line[line.find(&key)? + key.len()..];
            let value = rest[..rest.find(',')?].parse().ok()?;
            Some((d.name, value))
        })
        .collect()
}

/// The text of `BENCHMARK.json`.
pub fn manifest_json() -> String {
    let workloads: Vec<String> = Workload::ALL
        .iter()
        .map(|w| {
            format!(
                "    {{\"name\": {}, \"why\": {}}}",
                json_str(w.name()),
                json_str(w.why())
            )
        })
        .collect();
    let row = |d: &Metric| {
        let mut s = format!(
            "    {{\"name\": {}, \"unit\": {}, \"better\": {}",
            json_str(&d.name),
            json_str(d.unit),
            json_str(d.better)
        );
        if let Some(b) = d.bound {
            s.push_str(&format!(", \"bound\": {b}"));
        }
        s.push('}');
        s
    };
    let e2e: Vec<String> = end_to_end().iter().map(row).collect();
    let layers: Vec<String> = per_layer().iter().map(row).collect();
    format!(
        "{{\n  \"command\": [\"bash\", \"benchmarks/run.sh\"],\n  \"paths\": [\"benchmarks\"],\n  \
         \"run_seconds\": {RUN_SECONDS},\n  \"workloads\": [\n{}\n  ],\n  \"end_to_end\": [\n{}\n  ],\n  \
         \"per_layer\": [\n{}\n  ]\n}}\n",
        workloads.join(",\n"),
        e2e.join(",\n"),
        layers.join(",\n")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn manifest_matches_the_committed_file() {
        assert_eq!(
            manifest_json(),
            include_str!("../../BENCHMARK.json"),
            "regenerate with `benchmarks/run.sh manifest > BENCHMARK.json`"
        );
    }

    #[test]
    fn names_units_and_bounds_fit_the_contract() {
        let e2e = end_to_end();
        let layers = per_layer();
        assert!((1..=16).contains(&e2e.len()));
        assert!((1..=128).contains(&layers.len()));
        let mut seen = std::collections::BTreeSet::new();
        for m in e2e.iter().chain(&layers) {
            assert!(seen.insert(m.name.clone()), "{} twice", m.name);
            assert!(m.name.len() <= 64 && m.name.starts_with(|c: char| c.is_ascii_alphanumeric()));
            assert!(m
                .name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
            assert!(!m.unit.is_empty() && m.unit.len() <= 16);
            assert!(m
                .unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)));
        }
        for w in Workload::ALL {
            assert!(seen.insert(w.name().to_string()), "{} twice", w.name());
        }
        assert!(e2e
            .iter()
            .all(|m| matches!(m.bound, Some(b) if b > 0.0 && b <= 0.25)));
        let setup = e2e.iter().find(|m| m.name == "setup_s").expect("setup_s");
        assert_eq!((setup.unit, setup.better), ("s", "lower"));
        let largest = e2e.iter().filter_map(|m| m.bound).fold(0.0, f64::max);
        assert_eq!(setup.bound, Some(largest));
        assert!(layers.iter().all(|m| m.bound.is_none()));
        assert!(manifest_json().len() < 64 << 10);
    }

    #[test]
    fn result_line_is_one_line_with_every_metric() {
        let defs = end_to_end();
        let mut values = Values::default();
        for (i, d) in defs.iter().enumerate() {
            values.set(d.name.clone(), 1.5 + i as f64);
        }
        values.set("extra", f64::NAN);
        assert_eq!(values.get("extra"), Some(0.0));
        let line = result_json(&defs, &values, true, 10, 0);
        assert!(!line.contains('\n'));
        assert!(line.starts_with("{\"correct\": true, \"attempted\": 10, \"failed\": 0,"));
        assert!(line.contains("\"wall_s\": {\"value\": 1.5, \"unit\": \"s\"}"));
        assert_eq!(line.matches("\"unit\"").count(), defs.len());

        let parsed = parse_result(&line).expect("own result line parses");
        assert_eq!(parsed.len(), defs.len());
        assert_eq!(parsed[0], ("wall_s".to_string(), 1.5));
        assert_eq!(
            parse_result(&result_json(&defs, &values, false, 10, 1)),
            None
        );
        assert_eq!(parse_result("exit 1"), None);
    }
}
