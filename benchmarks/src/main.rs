//! `grdbench`: what a tenant pays, in wall-clock time, for going through
//! Guardian — measured against a live `guardiand` child process, with an
//! in-process `NativeRuntime` as the reference — and where that time goes,
//! layer by layer. See `benchmarks/README.md`.

mod affinity;
mod bench;
mod daemon;
mod gen;
mod harness;
mod layers;
mod metrics;
mod repeat;
mod stats;
mod surface;
mod traced;
mod verify;
mod workloads;

use bench::{RunConfig, RunOutcome};
use metrics::Metric;
use std::path::PathBuf;
use workloads::Workload;

const USAGE: &str = "\
usage: grdbench [run] --daemon PATH [--workload W] [--seed N] [--seconds S] [--trace [0|1]] [--quick]
       grdbench repeat --daemon PATH [--sets N] [--runs N] [--workload W] [--seed N] [--seconds S]
       grdbench manifest
workloads: solo_train pair_rodinia launch_storm memcpy_mix (default: all four)";

pub struct Cli {
    pub command: String,
    pub daemon_bin: Option<PathBuf>,
    pub workloads: Vec<Workload>,
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
    pub quick: bool,
    pub sets: usize,
    pub runs: usize,
}

fn parse_cli(args: &[String]) -> Result<Cli, String> {
    let mut cli = Cli {
        command: "run".into(),
        daemon_bin: std::env::var_os("GRDBENCH_DAEMON").map(PathBuf::from),
        workloads: Workload::ALL.to_vec(),
        seed: 1,
        seconds: metrics::RUN_SECONDS,
        trace: false,
        quick: false,
        sets: 2,
        runs: 5,
    };
    let mut it = args.iter().peekable();
    if let Some(first) = it.peek() {
        if !first.starts_with("--") {
            cli.command = it.next().expect("peeked").clone();
        }
    }
    while let Some(flag) = it.next() {
        let mut value = |what: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{flag} needs {what}"))
        };
        let number = |v: String| v.parse::<u64>().map_err(|e| format!("{flag} {v}: {e}"));
        match flag.as_str() {
            "--daemon" => cli.daemon_bin = Some(PathBuf::from(value("a path")?)),
            "--workload" => {
                let name = value("a workload name")?;
                let w = Workload::parse(&name).ok_or(format!("unknown workload `{name}`"))?;
                cli.workloads = vec![w];
            }
            "--seed" => cli.seed = number(value("a number")?)?,
            "--seconds" => {
                cli.seconds = number(value("a number")?)?;
                if !(1..=60).contains(&cli.seconds) {
                    return Err("--seconds must be 1 to 60".into());
                }
            }
            "--sets" => cli.sets = number(value("a number")?)?.max(1) as usize,
            "--runs" => cli.runs = number(value("a number")?)?.max(2) as usize,
            // `--trace 0|1` for the driver, bare `--trace` by hand.
            "--trace" => {
                cli.trace = match it.peek().map(|s| s.as_str()) {
                    Some("0") => {
                        it.next();
                        false
                    }
                    Some("1") => {
                        it.next();
                        true
                    }
                    _ => true,
                }
            }
            "--quick" => cli.quick = true,
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(cli)
}

/// Work from `benchmarks/out/`, created here: sockets, ring files, traces
/// and `result.json` all live in it, under names short enough for a
/// socket address however deep the checkout is.
fn enter_out_dir() -> Result<(), String> {
    let out = PathBuf::from("out");
    std::fs::create_dir_all(&out).map_err(|e| format!("cannot create {}: {e}", out.display()))?;
    std::env::set_current_dir(&out).map_err(|e| format!("cannot enter {}: {e}", out.display()))?;
    // The repository's temp-path helpers (socket paths, shm ring files)
    // follow TMPDIR; nothing may be written outside the checkout.
    std::env::set_var("TMPDIR", ".");
    Ok(())
}

fn command_output(program: &str, args: &[&str]) -> String {
    std::process::Command::new(program)
        .args(args)
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".into())
}

/// Where and when the numbers were taken, as JSON members.
fn environment_json(cli: &Cli) -> String {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    format!(
        "\"git_commit\": \"{}\", \"rustc\": \"{}\", \"nproc\": {nproc}, \"seed\": {}, \
         \"seconds\": {}, \"quick\": {}, \"loadavg_1m\": {}",
        command_output("git", &["rev-parse", "HEAD"]),
        command_output("rustc", &["-V"]),
        cli.seed,
        cli.seconds,
        cli.quick,
        daemon::loadavg_1m().unwrap_or(-1.0),
    )
}

fn print_metrics(defs: &[Metric], outcome: &RunOutcome) {
    for d in defs {
        if let Some(v) = outcome.values.get(&d.name) {
            println!("{:<34} {:>16.6} {}", d.name, v, d.unit);
        }
    }
}

fn run_command(cli: &Cli, daemon_bin: PathBuf) -> i32 {
    if cli.quick {
        println!("QUICK — not for claims");
    }
    if let Some(load) = daemon::loadavg_1m().filter(|&l| l > 0.5) {
        eprintln!("grdbench: warning: 1-minute load average is {load:.2}; timings will be noisy");
    }
    let defs = if cli.trace {
        metrics::per_layer()
    } else {
        metrics::end_to_end()
    };
    let env = environment_json(cli);
    let mut results = Vec::new();
    let mut exit = 0;
    for &workload in &cli.workloads {
        let outcome = bench::run(&RunConfig {
            workload,
            seed: cli.seed,
            seconds: cli.seconds,
            trace: cli.trace,
            quick: cli.quick,
            daemon_bin: daemon_bin.clone(),
        });
        let correct = outcome.failed == 0;
        for p in &outcome.problems {
            eprintln!("grdbench: {}: {p}", workload.name());
        }
        println!(
            "== {} (seed {}, {} pass) ==",
            workload.name(),
            cli.seed,
            if cli.trace { "traced" } else { "end-to-end" }
        );
        print_metrics(&defs, &outcome);
        if outcome.stuck || defs.iter().any(|d| outcome.values.get(&d.name).is_none()) {
            // No result line without every metric: the run did not measure.
            eprintln!("grdbench: {}: no result", workload.name());
            if outcome.stuck {
                // A thread is blocked inside the system under test;
                // returning from main would wait for it.
                std::process::exit(1);
            }
            exit = 1;
            continue;
        }
        let line = metrics::result_json(
            &defs,
            &outcome.values,
            correct,
            outcome.attempted,
            outcome.failed,
        );
        results.push(format!("\"{}\": {line}", workload.name()));
        println!("{line}");
        if !correct {
            exit = 1;
        }
    }
    let text = format!(
        "{{{env}, \"trace\": {}, \"results\": {{{}}}}}\n",
        cli.trace,
        results.join(", ")
    );
    if let Err(e) = std::fs::write("result.json", text) {
        eprintln!("grdbench: cannot write result.json: {e}");
    }
    exit
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cli = match parse_cli(&args) {
        Ok(cli) => cli,
        Err(e) => {
            eprintln!("grdbench: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    if cli.command == "manifest" {
        print!("{}", metrics::manifest_json());
        return;
    }
    let daemon_bin = match cli.daemon_bin.as_ref().map(|p| p.canonicalize()) {
        Some(Ok(p)) => p,
        Some(Err(e)) => {
            eprintln!("grdbench: guardiand binary: {e}");
            std::process::exit(2);
        }
        None => {
            eprintln!("grdbench: --daemon (or GRDBENCH_DAEMON) is required\n{USAGE}");
            std::process::exit(2);
        }
    };
    if let Err(e) = enter_out_dir() {
        eprintln!("grdbench: {e}");
        std::process::exit(2);
    }
    let code = match cli.command.as_str() {
        "run" => run_command(&cli, daemon_bin),
        "repeat" => repeat::run(&cli, &daemon_bin),
        other => {
            eprintln!("grdbench: unknown command `{other}`\n{USAGE}");
            2
        }
    };
    std::process::exit(code);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cli(args: &[&str]) -> Result<Cli, String> {
        parse_cli(&args.iter().map(|s| s.to_string()).collect::<Vec<_>>())
    }

    #[test]
    fn the_drivers_command_line_parses() {
        let c = cli(&[
            "--daemon",
            "/x/guardiand",
            "--workload",
            "memcpy_mix",
            "--seed",
            "7",
            "--seconds",
            "15",
            "--trace",
            "0",
        ])
        .unwrap();
        assert_eq!(c.command, "run");
        assert_eq!(c.workloads, [Workload::MemcpyMix]);
        assert_eq!((c.seed, c.seconds, c.trace, c.quick), (7, 15, false, false));
        assert!(cli(&["--trace", "1"]).unwrap().trace);
    }

    #[test]
    fn bare_trace_and_subcommands_parse() {
        let c = cli(&["--trace", "--quick"]).unwrap();
        assert!(c.trace && c.quick);
        assert_eq!(c.workloads.len(), 4);
        let c = cli(&["repeat", "--sets", "2", "--runs", "5"]).unwrap();
        assert_eq!((c.command.as_str(), c.sets, c.runs), ("repeat", 2, 5));
        assert!(cli(&["--seconds", "0"]).is_err());
        assert!(cli(&["--workload", "nope"]).is_err());
        assert!(cli(&["--frobnicate"]).is_err());
    }
}
