//! Theorem 2 (wait-freedom) and the freezing mechanism (§3.1).
//!
//! The hard case is a READ concurrent with an unbounded stream of WRITEs:
//! without help, server registers are overwritten faster than the reader
//! can confirm any value at `b + 1` servers. Freezing — readers signal
//! their timestamp, servers piggyback it on PW acks, the writer freezes a
//! value per READ — guarantees termination. These tests reproduce the
//! starvation pattern, verify freezing defeats it, and check the
//! mechanism's bookkeeping end to end.

use lucky_atomic::core::{ProtocolConfig, SimStore, StoreConfig};
use lucky_atomic::sim::Delay;
use lucky_atomic::types::{OpId, Params, ProcessId, ReaderId, RegisterId, ServerId, Value};

/// Build the adversarial storm cluster: reader → server links staggered
/// so every round samples non-adjacent write epochs; two servers crashed
/// so the staggered four are exactly the quorum.
fn storm_cluster(freezing: bool, cap: u32, seed: u64) -> SimStore {
    let params = Params::new(2, 1, 1, 0).unwrap();
    let protocol = ProtocolConfig {
        freezing,
        max_read_rounds: Some(cap),
        ..ProtocolConfig::for_sync_bound(100)
    };
    let mut cfg = StoreConfig::synchronous(params).with_protocol(protocol).with_seed(seed);
    for i in 0..params.server_count() as u16 {
        cfg.net.set_link(
            ProcessId::Reader(ReaderId(0)),
            ProcessId::Server(ServerId(i)),
            Delay::Constant(100 + 1_300 * i as u64),
        );
    }
    let mut c = cfg.build_sim();
    c.crash_server(4);
    c.crash_server(5);
    c
}

/// Drive the storm: closed-loop writes until the read completes or
/// `max_writes` writes have run.
fn run_storm(c: &mut SimStore, max_writes: u64) -> (OpId, u64) {
    run_storm_from(c, max_writes, 0)
}

/// Like [`run_storm`] but writing values `base+1, base+2, …` so repeated
/// storms on one cluster keep written values distinct.
fn run_storm_from(c: &mut SimStore, max_writes: u64, base: u64) -> (OpId, u64) {
    let at = c.now() + 2_000;
    let read_op = c.register(RegisterId::DEFAULT).invoke_read_at(at, 0);
    let mut writes = 0;
    while !c.is_complete(read_op) && writes < max_writes {
        writes += 1;
        c.register(RegisterId::DEFAULT).write(Value::from_u64(base + writes));
    }
    c.run_until_idle(5_000_000);
    (read_op, writes)
}

#[test]
fn theorem2_read_terminates_under_unbounded_writes() {
    for seed in [1u64, 7, 23] {
        let mut c = storm_cluster(true, 60, seed);
        let (read_op, writes) = run_storm(&mut c, 400);
        let rec = c.history().get(read_op).unwrap();
        assert!(
            rec.is_complete(),
            "seed {seed}: freezing must terminate the read (ran {writes} writes)"
        );
        c.check_atomicity().unwrap();
    }
}

#[test]
fn ablation_without_freezing_the_read_starves() {
    let mut c = storm_cluster(false, 25, 1);
    let (read_op, writes) = run_storm(&mut c, 400);
    let rec = c.history().get(read_op).unwrap();
    assert!(!rec.is_complete(), "without freezing the read must starve ({writes} writes ran)");
}

#[test]
fn frozen_value_satisfies_atomicity() {
    // The value returned via safeFrozen comes from a WRITE concurrent
    // with the READ (Lemma 4) — the checker accepts it and subsequent
    // reads never regress below it.
    let mut c = storm_cluster(true, 60, 3);
    let (read_op, writes) = run_storm(&mut c, 400);
    let frozen_read = c.outcome(read_op);
    let returned = frozen_read.value.as_u64().expect("a real value");
    assert!(returned >= 1 && returned <= writes);
    // Subsequent reads (quiet system now) must not return anything older.
    let next = c.register(RegisterId::DEFAULT).read(0);
    assert!(next.value.as_u64().unwrap() >= returned);
    c.check_atomicity().unwrap();
}

#[test]
fn writer_freezes_at_most_one_value_per_read() {
    // Bookkeeping check via the cores directly: covered in unit tests —
    // here we verify the observable consequence: under repeated storms
    // every read terminates with exactly one value and atomicity holds
    // across multiple slow reads of the same reader.
    let mut c = storm_cluster(true, 60, 5);
    for storm in 0..3u64 {
        let (read_op, _) = run_storm_from(&mut c, 300, storm * 1_000);
        assert!(c.history().get(read_op).unwrap().is_complete());
    }
    c.check_atomicity().unwrap();
}

#[test]
fn sequential_reads_between_writes_never_need_freezing() {
    // Without contention the freezing machinery stays dormant: reads are
    // fast and no frozen slot is ever consulted (observable as rounds=1).
    let params = Params::new(2, 1, 1, 0).unwrap();
    let mut c = StoreConfig::synchronous(params).build_sim();
    for i in 1..=20u64 {
        c.register(RegisterId::DEFAULT).write(Value::from_u64(i));
        let r = c.register(RegisterId::DEFAULT).read(0);
        assert!(r.fast);
    }
    c.check_atomicity().unwrap();
}

#[test]
fn two_concurrent_slow_readers_both_terminate() {
    // Freezing is per-reader: two starving readers each get their own
    // frozen slot and both terminate.
    let params = Params::new(2, 1, 1, 0).unwrap();
    let protocol =
        ProtocolConfig { max_read_rounds: Some(80), ..ProtocolConfig::for_sync_bound(100) };
    let mut cfg = StoreConfig::synchronous(params).with_protocol(protocol);
    for r in 0..2u16 {
        for i in 0..params.server_count() as u16 {
            cfg.net.set_link(
                ProcessId::Reader(ReaderId(r)),
                ProcessId::Server(ServerId(i)),
                Delay::Constant(100 + 1_300 * ((i + r) % 6) as u64),
            );
        }
    }
    let mut c = cfg.readers_per_register(2).build_sim();
    c.crash_server(4);
    c.crash_server(5);
    let now = c.now();
    let rd0 = c.register(RegisterId::DEFAULT).invoke_read_at(now + 2_000, 0);
    let rd1 = c.register(RegisterId::DEFAULT).invoke_read_at(now + 2_500, 1);
    let mut writes = 0u64;
    while (!c.is_complete(rd0) || !c.is_complete(rd1)) && writes < 600 {
        writes += 1;
        c.register(RegisterId::DEFAULT).write(Value::from_u64(writes));
    }
    c.run_until_idle(8_000_000);
    assert!(c.history().get(rd0).unwrap().is_complete(), "reader 0 terminated");
    assert!(c.history().get(rd1).unwrap().is_complete(), "reader 1 terminated");
    c.check_atomicity().unwrap();
}
