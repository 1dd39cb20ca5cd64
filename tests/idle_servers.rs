//! An idle store's server threads sleep: after the traffic stops, a
//! server thread blocks on its inbox until the next message (or a
//! crash/restart command, which travels on the same inbox) arrives,
//! instead of waking on a poll interval.
//!
//! The only test in this file on purpose: it counts context switches of
//! every `lucky-store-server-*` thread in the process, so another store
//! running in parallel would skew the count.
#![cfg(target_os = "linux")]

use lucky_atomic::net::{NetConfig, NetStore, Transport};
use lucky_atomic::types::{Params, RegisterId, Value};
use std::collections::BTreeMap;
use std::time::Duration;

/// `voluntary_ctxt_switches` of every thread of this process whose name
/// (`comm`, truncated to 15 bytes by the kernel) starts with `prefix`,
/// keyed by thread id.
fn voluntary_switches(prefix: &str) -> BTreeMap<String, u64> {
    let mut out = BTreeMap::new();
    for task in std::fs::read_dir("/proc/self/task").expect("list /proc/self/task").flatten() {
        let Ok(status) = std::fs::read_to_string(task.path().join("status")) else {
            continue; // the thread exited meanwhile
        };
        let field = |key: &str| {
            status.lines().find_map(|l| l.strip_prefix(key)).map(str::trim).unwrap_or_default()
        };
        if !field("Name:").starts_with(prefix) {
            continue;
        }
        let n = field("voluntary_ctxt_switches:").parse().expect("a switch count");
        out.insert(task.file_name().to_string_lossy().into_owned(), n);
    }
    out
}

#[test]
fn idle_server_threads_do_not_tick() {
    const PREFIX: &str = "lucky-store-ser";
    for transport in [Transport::Channel, Transport::Tcp] {
        let cfg = NetConfig {
            min_latency: Duration::from_micros(50),
            max_latency: Duration::from_micros(200),
            seed: 5,
            timer: Duration::from_millis(5),
        };
        let mut store =
            NetStore::builder(Params::new(1, 0, 1, 0).unwrap(), cfg).transport(transport).build();
        let h = store.register(RegisterId(0)).unwrap();
        h.write(Value::from_u64(1)).expect("the write completes");
        // Let the late acks drain before counting.
        std::thread::sleep(Duration::from_millis(100));
        let before = voluntary_switches(PREFIX);
        assert_eq!(before.len(), 3, "{transport:?}: one thread per server (S = 3)");
        std::thread::sleep(Duration::from_secs(1));
        let after = voluntary_switches(PREFIX);
        let switches: u64 =
            before.iter().map(|(tid, n)| after.get(tid).copied().unwrap_or(*n) - n).sum();
        assert!(
            switches <= 5,
            "{transport:?}: idle server threads switched {switches} times in 1 s"
        );
        // Still alive: the next operation completes normally.
        assert_eq!(h.read(0).unwrap().value.as_u64(), Some(1));
        store.shutdown();
    }
}
