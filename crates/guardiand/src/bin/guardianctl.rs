//! `guardianctl`: operator CLI for a live `guardiand`.
//!
//! Speaks the admin message family over the daemon's
//! `--admin-socket` uds endpoint (same-uid only). One request, one
//! response, exit:
//!
//! ```text
//! guardianctl --socket /run/guardian.admin devices
//! guardianctl --socket /run/guardian.admin tenants
//! guardianctl --socket /run/guardian.admin lease set 1000 mem=16M,streams=4,ttl=30s
//! guardianctl --socket /run/guardian.admin lease revoke 3
//! guardianctl --socket /run/guardian.admin quota [UID]
//! guardianctl --socket /run/guardian.admin metrics
//! guardianctl --socket /run/guardian.admin trace [--tenant UID] [--chrome out.json]
//! ```
//!
//! Tables print human-readable; `metrics` prints the raw Prometheus
//! text exposition (pipe it straight to a scrape file). `trace` dumps
//! the live flight recorders as a stage-latency table, and with
//! `--chrome` also writes a chrome://tracing / Perfetto JSON file with
//! one track per tenant uid. Exit status: 0 on success, 1 when the
//! daemon reports an error or cannot be reached, 2 on bad usage.

use guardian::proto::{AdminRequest, AdminResponse};
use guardian::telemetry::{OpClass, TraceEvent};
use guardian::transport::uds::UdsDialer;
use guardian::transport::Dialer;
use guardian::LeaseSpec;

const USAGE: &str = "usage: guardianctl --socket PATH \
    <devices | tenants | lease set UID SPEC | lease revoke CLIENT | quota [UID] | metrics \
    | trace [--tenant UID] [--chrome FILE]>";

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (socket, req, chrome) = match parse(&args) {
        Ok(p) => p,
        Err(e) => {
            eprintln!("guardianctl: {e}");
            eprintln!("{USAGE}");
            std::process::exit(2);
        }
    };

    let conn = match UdsDialer::new(&socket).dial() {
        Ok(c) => c,
        Err(e) => fail(&format!("cannot dial {socket}: {e}")),
    };
    if let Err(e) = conn.send(req.encode()) {
        fail(&format!("send failed: {e}"));
    }
    let frame = match conn.recv() {
        Ok(f) => f,
        Err(e) => fail(&format!("no response: {e}")),
    };
    let resp = match AdminResponse::decode(&frame) {
        Ok(r) => r,
        Err(e) => fail(&format!("bad response frame: {e:?}")),
    };
    render(resp, chrome.as_deref());
}

/// Split the command line into the socket path, the admin request, and
/// the optional `--chrome` output path.
fn parse(args: &[String]) -> Result<(String, AdminRequest, Option<String>), String> {
    let mut socket = None;
    let mut words = Vec::new();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--socket" => {
                socket = Some(
                    it.next()
                        .cloned()
                        .ok_or_else(|| "--socket needs a value".to_string())?,
                );
            }
            w => words.push(w.to_string()),
        }
    }
    let socket = socket.ok_or("--socket is required")?;
    let words: Vec<&str> = words.iter().map(|s| s.as_str()).collect();
    let mut chrome = None;
    let req = match words.as_slice() {
        ["devices"] => AdminRequest::Devices,
        ["tenants"] => AdminRequest::Tenants,
        ["lease", "set", uid, spec] => {
            let uid: u32 = uid.parse().map_err(|e| format!("lease set UID: {e}"))?;
            let lease = LeaseSpec::parse(spec).map_err(|e| format!("lease set SPEC: {e}"))?;
            AdminRequest::LeaseSet {
                uid,
                mem_bytes: lease.mem_bytes,
                streams: lease.streams,
                ttl_ms: lease.ttl_ms(),
                qos: lease.qos.to_wire(),
            }
        }
        ["lease", "revoke", client] => AdminRequest::LeaseRevoke {
            client: client
                .parse()
                .map_err(|e| format!("lease revoke CLIENT: {e}"))?,
        },
        ["quota"] => AdminRequest::Quota { uid: None },
        ["quota", uid] => AdminRequest::Quota {
            uid: Some(uid.parse().map_err(|e| format!("quota UID: {e}"))?),
        },
        ["metrics"] => AdminRequest::Metrics,
        ["trace", rest @ ..] => {
            let (uid, c) = parse_trace(rest)?;
            chrome = c;
            AdminRequest::Trace { uid }
        }
        [] => return Err("a command is required".into()),
        other => return Err(format!("unknown command `{}`", other.join(" "))),
    };
    Ok((socket, req, chrome))
}

/// Parse `trace`'s flags: `--tenant UID` filters server-side, `--chrome
/// FILE` additionally writes a chrome://tracing JSON dump.
fn parse_trace(rest: &[&str]) -> Result<(Option<u32>, Option<String>), String> {
    let mut uid = None;
    let mut chrome = None;
    let mut it = rest.iter();
    while let Some(w) = it.next() {
        match *w {
            "--tenant" => {
                let v = it.next().ok_or("--tenant needs a value")?;
                uid = Some(v.parse().map_err(|e| format!("trace --tenant UID: {e}"))?);
            }
            "--chrome" => {
                chrome = Some(it.next().ok_or("--chrome needs a value")?.to_string());
            }
            other => return Err(format!("unknown trace flag `{other}`")),
        }
    }
    Ok((uid, chrome))
}

fn render(resp: AdminResponse, chrome: Option<&str>) {
    match resp {
        AdminResponse::Devices { node, devices } => {
            println!("node {node}: {} device(s)", devices.len());
            println!(
                "{:>3}  {:<18} {:>9} {:>10} {:>10} {:>7}",
                "idx", "name", "clock", "pool", "used", "tenants"
            );
            for d in devices {
                println!(
                    "{:>3}  {:<18} {:>6.2}GHz {:>10} {:>10} {:>7}",
                    d.index,
                    d.name,
                    d.clock_ghz,
                    fmt_bytes(d.pool_bytes),
                    fmt_bytes(d.used_bytes),
                    d.tenants
                );
            }
        }
        AdminResponse::Tenants { node, tenants } => {
            println!("node {node}: {} tenant(s)", tenants.len());
            println!(
                "{:>6} {:>6} {:>4} {:>10} {:>10} {:>10} {:>9} {:>8} {:>9} {:>9} {:>8} {:>10}",
                "client",
                "uid",
                "dev",
                "qos",
                "partition",
                "lease",
                "ttl",
                "age",
                "held",
                "launches",
                "inflight",
                "xfer"
            );
            for t in tenants {
                println!(
                    "{:>6} {:>6} {:>4} {:>10} {:>10} {:>10} {:>9} {:>7}s {:>9} {:>9} {:>8} {:>10}",
                    t.client,
                    t.uid,
                    t.device,
                    guardian::QosClass::from_wire(t.qos),
                    fmt_bytes(t.partition_size),
                    if t.lease_mem == u64::MAX {
                        "none".to_string()
                    } else {
                        fmt_bytes(t.lease_mem)
                    },
                    if t.lease_ttl_ms == 0 {
                        "none".to_string()
                    } else {
                        format!("{}ms", t.lease_ttl_ms)
                    },
                    t.age_ms / 1000,
                    fmt_bytes(t.bytes_held),
                    t.launches,
                    t.inflight,
                    fmt_bytes(t.transfer_bytes)
                );
            }
        }
        AdminResponse::Quota { node, entries } => {
            println!("node {node}: {} usage row(s)", entries.len());
            println!(
                "{:>6} {:>4} {:>5} {:>10} {:>9} {:>9} {:>10} {:>10}",
                "uid", "dev", "live", "held", "launches", "xfers", "xfer-bytes", "occupancy"
            );
            for u in entries {
                println!(
                    "{:>6} {:>4} {:>5} {:>10} {:>9} {:>9} {:>10} {:>9}s",
                    u.uid,
                    u.device,
                    u.live,
                    fmt_bytes(u.bytes_held),
                    u.launches,
                    u.transfers,
                    fmt_bytes(u.transfer_bytes),
                    u.occupancy_ms / 1000
                );
            }
        }
        AdminResponse::Metrics { text, .. } => print!("{text}"),
        AdminResponse::Trace { node, events } => {
            render_trace(&node, &events);
            if let Some(path) = chrome {
                match std::fs::write(path, chrome_trace_json(&events)) {
                    Ok(()) => eprintln!("guardianctl: wrote chrome trace to {path}"),
                    Err(e) => fail(&format!("cannot write {path}: {e}")),
                }
            }
        }
        AdminResponse::Ok { node } => println!("node {node}: ok"),
        AdminResponse::Error { node, msg } => fail(&format!("node {node}: {msg}")),
    }
}

/// Human table: one row per flight-recorder event, stage durations in
/// microseconds. `t+` is the event's decode stamp relative to the
/// oldest event in the dump.
fn render_trace(node: &str, events: &[TraceEvent]) {
    println!("node {node}: {} trace event(s)", events.len());
    if events.is_empty() {
        return;
    }
    let base = events.iter().map(|e| e.t_decode_ns).min().unwrap_or(0);
    println!(
        "{:>10} {:<15} {:>6} {:>6} {:>6} {:>9} {:>9} {:>9} {:>9} {:>3}",
        "t+us", "op", "uid", "client", "stream", "admit_us", "queue_us", "enq_us", "dev_us", "err"
    );
    for e in events {
        let op = OpClass::from_u8(e.op).map(|o| o.name()).unwrap_or("?");
        println!(
            "{:>10.1} {:<15} {:>6} {:>6} {:>6} {:>9} {:>9} {:>9} {:>9} {:>3}",
            (e.t_decode_ns - base) as f64 / 1e3,
            op,
            e.uid,
            e.client,
            e.stream,
            stage_us(e.t_decode_ns, e.t_admit_ns),
            stage_us(e.t_admit_ns, e.t_flush_ns),
            stage_us(e.t_flush_ns, e.t_enqueue_ns),
            stage_us(e.t_enqueue_ns.max(e.t_decode_ns), e.t_complete_ns),
            e.outcome
        );
    }
}

/// One stage's duration in whole microseconds, or `-` when the event
/// never reached the later stage (its stamp is 0).
fn stage_us(from: u64, to: u64) -> String {
    if to == 0 || from == 0 || to < from {
        "-".to_string()
    } else {
        format!("{}", (to - from) / 1000)
    }
}

/// chrome://tracing "trace event format" JSON: complete (`ph:"X"`)
/// slices, one track per tenant (`pid` = uid, `tid` = stream), `ts`/
/// `dur` in microseconds. Consecutive stage slices share boundaries, so
/// per-stage durations sum to the end-to-end latency by construction.
fn chrome_trace_json(events: &[TraceEvent]) -> String {
    let mut out = String::from("[\n");
    let mut first = true;
    let mut slice = |name: &str, pid: u32, tid: u32, from: u64, to: u64| {
        if to == 0 || from == 0 || to <= from {
            return;
        }
        if !first {
            out.push_str(",\n");
        }
        first = false;
        out.push_str(&format!(
            "  {{\"name\":\"{name}\",\"ph\":\"X\",\"cat\":\"guardian\",\
             \"pid\":{pid},\"tid\":{tid},\"ts\":{:.3},\"dur\":{:.3}}}",
            from as f64 / 1e3,
            (to - from) as f64 / 1e3
        ));
    };
    for e in events {
        let (pid, tid) = (e.uid, e.stream);
        slice("decode+admit", pid, tid, e.t_decode_ns, e.t_admit_ns);
        slice("queued", pid, tid, e.t_admit_ns, e.t_flush_ns);
        slice("enqueue", pid, tid, e.t_flush_ns, e.t_enqueue_ns);
        let dev_from = if e.t_enqueue_ns != 0 {
            e.t_enqueue_ns
        } else {
            e.t_decode_ns
        };
        slice("device", pid, tid, dev_from, e.t_complete_ns);
    }
    out.push_str("\n]\n");
    out
}

/// Human byte sizes: exact power-of-two multiples print as `K`/`M`/`G`,
/// everything else prints raw so the operator never loses precision.
fn fmt_bytes(b: u64) -> String {
    const G: u64 = 1 << 30;
    const M: u64 = 1 << 20;
    const K: u64 = 1 << 10;
    if b == u64::MAX {
        "inf".to_string()
    } else if b >= G && b.is_multiple_of(G) {
        format!("{}G", b / G)
    } else if b >= M && b.is_multiple_of(M) {
        format!("{}M", b / M)
    } else if b >= K && b.is_multiple_of(K) {
        format!("{}K", b / K)
    } else {
        format!("{b}B")
    }
}

fn fail(msg: &str) -> ! {
    eprintln!("guardianctl: {msg}");
    std::process::exit(1);
}
