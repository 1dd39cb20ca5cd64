//! Differential harness for the shard worker's two ways to wait: on
//! its **input channel** (`Transport::Channel`, where the router sends
//! every delivery to the worker's channel) and in **epoll**
//! (`Transport::Tcp`, where the worker reads its own socket). The
//! "drivers" these tests name are those two waits: every store runs
//! the one multiplexing worker, and they must be observably
//! interchangeable.
//!
//! Both waits feed the same sans-io `ClientSession`s, so for a
//! deterministic (sequential-per-register) workload they must produce
//! **identical `OpOutcome` streams** — register, kind and value, for all
//! three protocol variants — identical round/luck classification, and
//! identical checker verdicts; for a concurrent workload, where
//! wall-clock interleavings legitimately differ, the per-register
//! linearizability/regularity oracles must pass under both. Fault
//! tolerance must not depend on the wait either: a crash + Byzantine
//! run completes checker-clean with the same stream under both.
//!
//! The third configuration — TCP without epoll, where fabric reader
//! threads feed the worker's channel — cannot be chosen through the
//! public API; a crate-internal test in `lucky-net` pins it.

use lucky_atomic::core::byz::ForgeValue;
use lucky_atomic::core::Setup;
use lucky_atomic::net::{NetConfig, NetStore, NetStoreBuilder, Transport};
use lucky_atomic::types::{OpKind, Params, RegisterId, Seq, TsVal, TwoRoundParams, Value};
use std::time::Duration;

const REGISTERS: usize = 4;
const READERS_PER_REGISTER: usize = 2;
const ROUNDS: u64 = 3;

fn setups() -> Vec<Setup> {
    vec![
        Setup::Atomic(Params::new(2, 1, 1, 0).unwrap()),
        Setup::TwoRound(TwoRoundParams::new(2, 1, 1).unwrap()),
        Setup::Regular(Params::trading_reads(2, 1).unwrap()),
    ]
}

fn net_cfg(timer_millis: u64) -> NetConfig {
    NetConfig {
        min_latency: Duration::from_micros(50),
        max_latency: Duration::from_micros(300),
        seed: 11,
        timer: Duration::from_millis(timer_millis),
    }
}

fn value_for(reg: RegisterId, round: u64) -> u64 {
    1 + reg.0 as u64 * 1_000 + round
}

/// Every transport, each selecting one way for the workers to wait:
/// the input channel, then epoll.
const WAITS: [Transport; 2] = [Transport::Channel, Transport::Tcp];

fn builder(setup: Setup, transport: Transport, faulty: bool) -> NetStoreBuilder {
    let timer = if transport == Transport::Tcp { 8 } else { 4 };
    let mut b = NetStore::builder(setup, net_cfg(timer))
        .registers(REGISTERS)
        .readers_per_register(READERS_PER_REGISTER)
        .shards(3)
        .transport(transport);
    if faulty {
        // One crashed server plus one value-forging Byzantine server:
        // within every variant's fault budget (t = 2, b = 1).
        b = b
            .crashed(0)
            .byzantine(1, Box::new(ForgeValue::new(TsVal::new(Seq(77), Value::from_u64(666)))));
    }
    b
}

/// One deterministic outcome-stream entry: the fields that must match
/// across the waits exactly (wall-clock metrics like `elapsed` and the
/// fast/slow split legitimately vary between runs).
type Outcome = (RegisterId, OpKind, Option<u64>);

/// The sequential workload: per round, every register writes then both
/// its readers read, each operation waited to completion before the
/// next. Values read are fully determined, so the stream is comparable
/// element for element.
fn run_sequential(setup: Setup, transport: Transport, faulty: bool) -> Vec<Outcome> {
    let mut store = builder(setup, transport, faulty).build();
    let handles: Vec<_> =
        RegisterId::all(REGISTERS).map(|reg| store.register(reg).expect("fresh handle")).collect();
    let mut stream = Vec::new();
    for round in 0..ROUNDS {
        for h in &handles {
            let v = value_for(h.id(), round);
            let out = h.write(Value::from_u64(v)).expect("write completes");
            assert_eq!(out.kind, OpKind::Write);
            stream.push((out.reg, out.kind, out.value.as_u64()));
            for j in 0..READERS_PER_REGISTER as u16 {
                let out = h.read(j).expect("read completes");
                assert_eq!(
                    out.value.as_u64(),
                    Some(v),
                    "sequential read returns the last written value ({setup:?}, {transport:?})"
                );
                stream.push((out.reg, out.kind, out.value.as_u64()));
            }
        }
    }
    match setup {
        Setup::Regular(_) => store.check_regularity().expect("regularity holds"),
        _ => store.check_atomicity().expect("atomicity holds"),
    }
    store.shutdown();
    stream
}

/// The concurrent workload: every register's write and reads submitted
/// before anything is waited on, so sessions genuinely overlap (several
/// ops multiplex each worker thread). Values read are timing-dependent;
/// the oracle is the checker.
fn run_concurrent(setup: Setup, transport: Transport, faulty: bool) -> usize {
    let mut store = builder(setup, transport, faulty).build();
    let handles: Vec<_> =
        RegisterId::all(REGISTERS).map(|reg| store.register(reg).expect("fresh handle")).collect();
    let mut completed = 0;
    for round in 0..ROUNDS {
        let mut tickets = Vec::new();
        for h in &handles {
            tickets.push(h.invoke_write(Value::from_u64(value_for(h.id(), round))));
            for j in 0..READERS_PER_REGISTER as u16 {
                tickets.push(h.invoke_read(j));
            }
        }
        for t in tickets {
            t.wait().expect("concurrent operation completes");
            completed += 1;
        }
    }
    match setup {
        Setup::Regular(_) => store.check_regularity().expect("regularity holds"),
        _ => store.check_atomicity().expect("atomicity holds"),
    }
    store.shutdown();
    completed
}

#[test]
fn sequential_outcome_streams_are_identical_across_drivers() {
    for setup in setups() {
        let channel = run_sequential(setup, Transport::Channel, false);
        let epoll = run_sequential(setup, Transport::Tcp, false);
        assert_eq!(
            channel, epoll,
            "channel and epoll waits diverged on the deterministic workload ({setup:?})"
        );
        assert_eq!(channel.len(), (ROUNDS as usize) * REGISTERS * (1 + READERS_PER_REGISTER));
    }
}

#[test]
fn concurrent_workloads_stay_checker_clean_under_both_drivers() {
    for setup in setups() {
        for transport in WAITS {
            let completed = run_concurrent(setup, transport, false);
            assert_eq!(
                completed,
                (ROUNDS as usize) * REGISTERS * (1 + READERS_PER_REGISTER),
                "({setup:?}, {transport:?})"
            );
        }
    }
}

#[test]
fn crash_plus_byzantine_over_tcp_is_driver_independent() {
    // The acceptance run: a crashed server and a value-forging Byzantine
    // server, all three variants, over real sockets (epoll) and over
    // channels — identical deterministic streams, clean verdicts.
    for setup in setups() {
        let epoll = run_sequential(setup, Transport::Tcp, true);
        let channel = run_sequential(setup, Transport::Channel, true);
        assert_eq!(epoll, channel, "the waits diverged under faults ({setup:?})");
    }
}

#[test]
fn concurrent_tcp_workloads_stay_checker_clean_under_all_drivers() {
    // Overlapping sessions over real sockets, with the faults on: the
    // crashed server's frames drop and the forger answers every READ.
    for setup in setups() {
        let completed = run_concurrent(setup, Transport::Tcp, true);
        assert_eq!(
            completed,
            (ROUNDS as usize) * REGISTERS * (1 + READERS_PER_REGISTER),
            "{setup:?}"
        );
    }
}

/// One luck-pinned stream entry: outcome fields *plus* the round count
/// and fast/slow classification the tracer reports.
type LuckOutcome = (RegisterId, OpKind, Option<u64>, u32, bool);

/// Sequential workload with a timer generous enough (20ms) that no op
/// ever straddles the round-1 deadline: the rounds/fast classification
/// is then fully determined by the variant, so it must be identical
/// across the waits — not just the values read.
fn run_luck_pinned(setup: Setup, transport: Transport) -> Vec<LuckOutcome> {
    const LUCK_ROUNDS: u64 = 2;
    let mut store = NetStore::builder(setup, net_cfg(20))
        .registers(REGISTERS)
        .readers_per_register(READERS_PER_REGISTER)
        .shards(3)
        .transport(transport)
        .build();
    let handles: Vec<_> =
        RegisterId::all(REGISTERS).map(|reg| store.register(reg).expect("fresh handle")).collect();
    let mut stream = Vec::new();
    for round in 0..LUCK_ROUNDS {
        for h in &handles {
            let out = h.write(Value::from_u64(value_for(h.id(), round))).expect("write completes");
            stream.push((out.reg, out.kind, out.value.as_u64(), out.rounds, out.fast));
            for j in 0..READERS_PER_REGISTER as u16 {
                let out = h.read(j).expect("read completes");
                stream.push((out.reg, out.kind, out.value.as_u64(), out.rounds, out.fast));
            }
        }
    }
    store.shutdown();
    stream
}

#[test]
fn round_counts_and_luck_classification_are_identical_across_drivers() {
    for setup in setups() {
        let channel = run_luck_pinned(setup, Transport::Channel);
        let epoll = run_luck_pinned(setup, Transport::Tcp);
        assert_eq!(
            channel, epoll,
            "channel and epoll waits classified luck differently ({setup:?})"
        );
        // Synchrony without contention: every op resolves in the
        // variant's canonical round count.
        for (reg, kind, _, rounds, fast) in &channel {
            match setup {
                Setup::TwoRound(_) if *kind == OpKind::Write => {
                    assert_eq!((*rounds, *fast), (2, false), "{setup:?} {reg} {kind:?}");
                }
                _ => {
                    assert_eq!((*rounds, *fast), (1, true), "{setup:?} {reg} {kind:?}");
                }
            }
        }
    }
}

#[test]
fn per_op_traffic_attribution_is_real_under_every_driver() {
    // Both waits record real per-op msgs/bytes in the history. An op
    // needs at least one full round to its quorum, so each record must
    // attribute at least quorum-many messages (sends + acks); exact
    // totals legitimately differ between runs, because *when* a late
    // ack is pumped decides which op (if any) absorbs it.
    let setup = Setup::Atomic(Params::new(2, 1, 1, 0).unwrap());
    for transport in WAITS {
        let mut store = builder(setup, transport, false).build();
        let handles: Vec<_> = RegisterId::all(REGISTERS)
            .map(|reg| store.register(reg).expect("fresh handle"))
            .collect();
        for h in &handles {
            h.write(Value::from_u64(h.id().0 as u64 + 1)).expect("write completes");
            h.read(0).expect("read completes");
        }
        let history = store.history();
        assert_eq!(history.ops.len(), REGISTERS * 2);
        for rec in &history.ops {
            // S = 2t + b + 1 = 6 here; one round is S sends plus at
            // least a quorum (S − t = 4) of acks back.
            assert!(
                rec.msgs >= 10,
                "{transport:?} attributes a full round to op {:?} (got {})",
                rec.id,
                rec.msgs
            );
            assert!(rec.bytes > 0, "{transport:?} attributes bytes to op {:?}", rec.id);
        }
        store.shutdown();
    }
}

#[test]
fn polled_driver_multiplexes_registers_on_one_worker() {
    // Force every session onto a single worker: concurrency must come
    // purely from the worker's multiplexing, not thread counts — under
    // either wait.
    let setup = Setup::Atomic(Params::new(1, 0, 1, 0).unwrap());
    for transport in WAITS {
        let mut store = NetStore::builder(setup, net_cfg(4))
            .registers(REGISTERS)
            .shards(1)
            .transport(transport)
            .build();
        let handles: Vec<_> = RegisterId::all(REGISTERS)
            .map(|reg| store.register(reg).expect("fresh handle"))
            .collect();
        // Submit every register's write before waiting on any: the
        // worker runs them concurrently and all complete.
        let tickets: Vec<_> = handles
            .iter()
            .map(|h| h.invoke_write(Value::from_u64(100 + h.id().0 as u64)))
            .collect();
        for t in tickets {
            t.wait().expect("multiplexed write completes");
        }
        for h in &handles {
            assert_eq!(h.read(0).unwrap().value.as_u64(), Some(100 + h.id().0 as u64));
        }
        store.check_atomicity().unwrap();
        store.shutdown();
    }
}
