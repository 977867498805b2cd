//! `grdbench repeat`: the repeatability check the regression bounds are
//! set from. Interleaves `--sets` sets of `--runs` end-to-end runs of the
//! same build — each run a fresh process, as the driver makes them; run
//! *i* of every set uses seed `--seed + i` — and prints, per workload and
//! metric, each set's median, median absolute deviation and interquartile
//! range, and whether the sets agree within the metric's bound.

use crate::metrics;
use crate::stats::{iqr_share, mad, median};
use crate::Cli;
use std::collections::BTreeMap;
use std::path::Path;
use std::process::{Command, Stdio};

/// One end-to-end run in a process of its own; the values on its result
/// line, or what went wrong.
fn one_run(
    cli: &Cli,
    daemon_bin: &Path,
    workload: &str,
    seed: u64,
) -> Result<Vec<(String, f64)>, String> {
    let exe = std::env::current_exe().map_err(|e| format!("own path: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args(["run", "--workload", workload, "--trace", "0"])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &cli.seconds.to_string()])
        .arg("--daemon")
        .arg(daemon_bin)
        // This process works from `out/`; the child enters it itself.
        .current_dir("..")
        .stderr(Stdio::null());
    if cli.quick {
        cmd.arg("--quick");
    }
    let out = cmd.output().map_err(|e| format!("cannot start: {e}"))?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    let line = stdout.lines().last().unwrap_or_default();
    if !out.status.success() {
        return Err(format!("{}: {line}", out.status));
    }
    metrics::parse_result(line).ok_or_else(|| format!("no result line: {line}"))
}

pub fn run(cli: &Cli, daemon_bin: &Path) -> i32 {
    let defs = metrics::end_to_end();
    // (workload, metric) -> per set, the values of its runs.
    let mut table: BTreeMap<(&str, String), Vec<Vec<f64>>> = BTreeMap::new();
    let mut failed_runs = 0;
    for i in 0..cli.runs {
        for set in 0..cli.sets {
            for &workload in &cli.workloads {
                eprintln!(
                    "grdbench repeat: run {}/{} set {}/{} {}",
                    i + 1,
                    cli.runs,
                    set + 1,
                    cli.sets,
                    workload.name()
                );
                match one_run(cli, daemon_bin, workload.name(), cli.seed + i as u64) {
                    Ok(values) => {
                        for (name, v) in values {
                            let sets = table
                                .entry((workload.name(), name))
                                .or_insert_with(|| vec![Vec::new(); cli.sets]);
                            sets[set].push(v);
                        }
                    }
                    Err(e) => {
                        failed_runs += 1;
                        eprintln!("grdbench repeat: {}: {e}", workload.name());
                    }
                }
            }
        }
    }

    println!(
        "{:<14} {:<16} {:>7}  per set: median ±MAD (IQR as share of median) ...  {:>9}  verdict",
        "workload", "metric", "bound", "sets differ"
    );
    let mut disagreements = 0;
    for &workload in &cli.workloads {
        for d in &defs {
            let Some(sets) = table.get(&(workload.name(), d.name.clone())) else {
                continue;
            };
            let bound = d.bound.unwrap_or(0.0);
            let medians: Vec<f64> = sets.iter().map(|s| median(s)).collect();
            let spread = sets.iter().map(|s| iqr_share(s)).fold(0.0, f64::max);
            let (lo, hi) = medians
                .iter()
                .fold((f64::MAX, f64::MIN), |(lo, hi), &m| (lo.min(m), hi.max(m)));
            let differ = if lo > 0.0 { hi / lo - 1.0 } else { 0.0 };
            // setup_s is held to its bound between sets, not within one.
            let spread_ok = d.name == "setup_s" || spread <= bound;
            let verdict = match (differ <= bound && spread_ok, spread <= bound / 3.0) {
                (true, true) => "agree, steady",
                (true, false) => "agree",
                (false, _) => {
                    disagreements += 1;
                    "DISAGREE"
                }
            };
            let per_set: Vec<String> = sets
                .iter()
                .zip(&medians)
                .map(|(s, m)| format!("{m:.5} ±{:.5} ({:.1}%)", mad(s), iqr_share(s) * 100.0))
                .collect();
            println!(
                "{:<14} {:<16} {:>6.1}%  {}  {:>8.1}%  {verdict}",
                workload.name(),
                d.name,
                bound * 100.0,
                per_set.join("  "),
                differ * 100.0,
            );
        }
    }
    println!("{disagreements} disagreements, {failed_runs} runs without a correct result");
    i32::from(disagreements > 0 || failed_runs > 0)
}
