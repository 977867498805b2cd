//! `guardiand`: the grdManager as a standalone daemon process.
//!
//! Owns the (simulated) GPU and serves Guardian's wire protocol over a
//! Unix domain socket (`--uds PATH`) and/or a shared-memory-ring
//! endpoint (`--shm PATH`) — both at once fan into one manager, one
//! partition pool. Tenants are separate OS processes (`grd-tenant`, or
//! anything using `GrdLib::dial_uds`/`dial_shm`).
//!
//! The node control plane rides along: `--lease-default` admits every
//! connect under a memory/stream/TTL lease, `--max-connect-rate`
//! meters connects per uid at the accept loops, and `--admin-socket`
//! binds the operator endpoint `guardianctl` speaks (with an optional
//! plaintext-HTTP `/metrics` mirror via `--admin-http`).
//!
//! Prints one `guardiand: listening …` line to stdout once every
//! endpoint is bound, so supervisors (and the cross-process test suite)
//! can wait for readiness, then serves until killed.

use guardian::control::{serve_admin, serve_http_metrics};
use guardian::proto::{AdminRequest, AdminResponse};
use guardian::transport::UidPolicy;
use guardian::{spawn_manager_multi, BoundTransport, LaunchAck, ManagerConfig};
use guardiand::DaemonOpts;
use std::io::Write;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = match DaemonOpts::parse(&args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("guardiand: {e}");
            eprintln!(
                "usage: guardiand [--uds PATH] [--shm PATH] [--gpus N] \
                 [--pool-bytes N[,N...]] [--protection fence|modulo|check|none] \
                 [--deferred] [--allow-uid UID[,UID...]] \
                 [--lease-default SPEC] \
                 [--admin-socket PATH] [--max-connect-rate N] \
                 [--node-id NAME] [--admin-http ADDR] \
                 [--qos-budget N] [--slice-cycles N]"
            );
            std::process::exit(2);
        }
    };

    // SO_PEERCRED gate on every socket: the daemon's own uid unless an
    // explicit --allow-uid list was given. The connect-rate gate is
    // shared across endpoints so both meter one budget per uid.
    let policy = opts.uid_policy();
    let admission = opts.admission();
    let mut transports = Vec::new();
    if let Some(path) = &opts.uds {
        match BoundTransport::uds_gated(path, policy.clone(), admission.clone()) {
            Ok(t) => transports.push(t),
            Err(e) => fail(&format!("cannot bind uds endpoint {}: {e}", path.display())),
        }
    }
    if let Some(path) = &opts.shm {
        match BoundTransport::shm_gated(path, policy, admission.clone()) {
            Ok(t) => transports.push(t),
            Err(e) => fail(&format!("cannot bind shm endpoint {}: {e}", path.display())),
        }
    }
    let transport = if transports.len() == 1 {
        transports.pop().expect("one transport")
    } else {
        BoundTransport::merge(transports)
    };

    // --slice-cycles arms kernel-slice preemption on every simulated
    // device, so latency-class streams can claim SMs at slice
    // boundaries instead of waiting out whole thread blocks.
    let spec = {
        let mut s = gpu_sim::spec::test_gpu();
        s.kernel_slice_cycles = opts.slice_cycles;
        s
    };
    let devices: Vec<_> = (0..opts.gpus)
        .map(|i| cuda_rt::share_device(gpu_sim::Device::new_indexed(spec.clone(), i)))
        .collect();
    let (pool_bytes, pool_bytes_per_gpu) = opts.pool_config();
    let defaults = ManagerConfig::default();
    let config = ManagerConfig {
        protection: opts.protection,
        pool_bytes,
        pool_bytes_per_gpu,
        launch_ack: if opts.deferred {
            LaunchAck::Deferred
        } else {
            LaunchAck::Eager
        },
        lease_default: opts.lease_default,
        node_id: opts.node_id.clone(),
        admission,
        log_level: opts.log_level,
        qos_inflight_budget: opts.qos_budget.unwrap_or(defaults.qos_inflight_budget),
        ..defaults
    };
    // Bound to a named variable: the handle must outlive the serve loop
    // (dropping it would tear the acceptor down).
    let manager = match spawn_manager_multi(devices, config, &[], transport) {
        Ok(m) => m,
        Err(e) => fail(&format!("cannot spawn manager: {e}")),
    };

    // The admin plane is operator-only: same-uid regardless of who the
    // tenant sockets admit, and never metered by the connect gate.
    let _admin = opts.admin_socket.as_ref().map(|path| {
        let transport = match BoundTransport::uds_with_policy(path, UidPolicy::same_user()) {
            Ok(t) => t,
            Err(e) => fail(&format!("cannot bind admin socket {}: {e}", path.display())),
        };
        let api = manager.admin();
        serve_admin(transport, move |req| api.handle(req))
    });
    let _http = opts.admin_http.as_ref().map(|addr| {
        let api = manager.admin();
        match serve_http_metrics(addr, move || match api.handle(AdminRequest::Metrics) {
            AdminResponse::Metrics { text, .. } => text,
            other => format!("# metrics unavailable: {other:?}\n"),
        }) {
            Ok(s) => s,
            Err(e) => fail(&format!("cannot bind admin http {addr}: {e}")),
        }
    });

    let endpoints: Vec<String> = [
        opts.uds.as_ref().map(|p| format!("uds:{}", p.display())),
        opts.shm.as_ref().map(|p| format!("shm:{}", p.display())),
        opts.admin_socket
            .as_ref()
            .map(|p| format!("admin:{}", p.display())),
        opts.admin_http.as_ref().map(|a| format!("http:{a}")),
    ]
    .into_iter()
    .flatten()
    .collect();
    println!(
        "guardiand: listening on {} ({} gpu{})",
        endpoints.join(" "),
        opts.gpus,
        if opts.gpus == 1 { "" } else { "s" }
    );
    let _ = std::io::stdout().flush();

    // Serve until killed.
    loop {
        std::thread::sleep(std::time::Duration::from_secs(3600));
    }
}

fn fail(msg: &str) -> ! {
    eprintln!("guardiand: {msg}");
    std::process::exit(1);
}
