//! Criterion micro-benchmarks: wall-clock cost of driving one simulated
//! operation to completion, per protocol variant and baseline.
//!
//! These measure the *implementation* (simulator + protocol state
//! machines), complementing the virtual-time tables: they answer "how
//! expensive is it to simulate/execute an operation", which bounds the
//! experiment throughput of the whole harness.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use lucky_baselines::abd::{AbdCluster, AbdConfig};
use lucky_core::{ProtocolConfig, StoreConfig};
use lucky_net::{NetConfig, NetStore, Transport};
use lucky_types::{Params, ReaderId, RegisterId, TwoRoundParams, Value};
use std::time::Duration;

fn bench_lucky_ops(c: &mut Criterion) {
    let params = Params::new(2, 1, 1, 0).unwrap();
    let mut group = c.benchmark_group("lucky_atomic");

    group.bench_function("fast_write", |bencher| {
        bencher.iter_batched_ref(
            || StoreConfig::synchronous(params).build_sim(),
            |store| store.register(RegisterId::DEFAULT).write(Value::from_u64(1)),
            BatchSize::SmallInput,
        );
    });

    group.bench_function("fast_read", |bencher| {
        bencher.iter_batched_ref(
            || {
                let mut store = StoreConfig::synchronous(params).build_sim();
                store.register(RegisterId::DEFAULT).write(Value::from_u64(1));
                store
            },
            |store| store.register(RegisterId::DEFAULT).read(0),
            BatchSize::SmallInput,
        );
    });

    group.bench_function("slow_write", |bencher| {
        bencher.iter_batched_ref(
            || {
                let mut store = StoreConfig::synchronous(params)
                    .with_protocol(ProtocolConfig::slow_only(100))
                    .build_sim();
                store.register(RegisterId::DEFAULT).write(Value::from_u64(1));
                store
            },
            |store| store.register(RegisterId::DEFAULT).write(Value::from_u64(2)),
            BatchSize::SmallInput,
        );
    });

    group.bench_function("slow_read_with_writeback", |bencher| {
        bencher.iter_batched_ref(
            || {
                let mut store = StoreConfig::synchronous(params)
                    .with_protocol(ProtocolConfig::slow_only(100))
                    .build_sim();
                store.register(RegisterId::DEFAULT).write(Value::from_u64(1));
                store
            },
            |store| store.register(RegisterId::DEFAULT).read(0),
            BatchSize::SmallInput,
        );
    });
    group.finish();
}

fn bench_variants(c: &mut Criterion) {
    let mut group = c.benchmark_group("variants_write_read_pair");

    let params = Params::new(2, 1, 1, 0).unwrap();
    group.bench_function("atomic", |bencher| {
        bencher.iter_batched_ref(
            || StoreConfig::synchronous(params).build_sim(),
            |store| {
                store.register(RegisterId::DEFAULT).write(Value::from_u64(1));
                store.register(RegisterId::DEFAULT).read(0)
            },
            BatchSize::SmallInput,
        );
    });

    let trp = TwoRoundParams::new(2, 1, 1).unwrap();
    group.bench_function("two_round", |bencher| {
        bencher.iter_batched_ref(
            || StoreConfig::synchronous_two_round(trp).build_sim(),
            |store| {
                store.register(RegisterId::DEFAULT).write(Value::from_u64(1));
                store.register(RegisterId::DEFAULT).read(0)
            },
            BatchSize::SmallInput,
        );
    });

    let reg = Params::trading_reads(2, 1).unwrap();
    group.bench_function("regular", |bencher| {
        bencher.iter_batched_ref(
            || StoreConfig::synchronous_regular(reg).build_sim(),
            |store| {
                store.register(RegisterId::DEFAULT).write(Value::from_u64(1));
                store.register(RegisterId::DEFAULT).read(0)
            },
            BatchSize::SmallInput,
        );
    });

    group.bench_function("abd", |bencher| {
        bencher.iter_batched_ref(
            || AbdCluster::new(AbdConfig::synchronous(2), 1),
            |cluster| {
                cluster.write(Value::from_u64(1));
                cluster.read(ReaderId(0))
            },
            BatchSize::SmallInput,
        );
    });
    group.finish();
}

/// The shard worker's epoll wait on the real-time runtime, over real
/// TCP sockets: wall-clock latency of a sequential write + read pair
/// (the row keeps its historical `reactor` label).
fn bench_net_drivers(c: &mut Criterion) {
    // Elsewhere TCP workers wait on their input channel; benching that
    // fallback under the epoll row's label would just mislead the gate.
    if !cfg!(target_os = "linux") {
        return;
    }
    let params = Params::new(1, 0, 1, 0).unwrap();
    let cfg = || NetConfig {
        min_latency: Duration::from_micros(50),
        max_latency: Duration::from_micros(200),
        seed: 3,
        timer: Duration::from_millis(2),
    };
    let mut group = c.benchmark_group("net_driver_write_read_pair_tcp");
    group.bench_function("reactor", |bencher| {
        bencher.iter_batched_ref(
            || {
                let mut store =
                    NetStore::builder(params, cfg()).registers(1).transport(Transport::Tcp).build();
                let handle = store.register(RegisterId(0)).expect("fresh handle");
                (store, handle)
            },
            |(_store, handle)| {
                handle.write(Value::from_u64(1)).expect("write completes");
                handle.read(0).expect("read completes")
            },
            BatchSize::LargeInput,
        );
    });
    group.finish();
}

criterion_group!(benches, bench_lucky_ops, bench_variants, bench_net_drivers);
criterion_main!(benches);
