//! The multi-register store facade over the simulator runtime.
//!
//! The paper emulates *one* robust register; a production store serves a
//! whole namespace of them over a single `S = 2t + b + 1` server cluster.
//! [`StoreConfig`] names the variant, the network regime and the register
//! namespace; [`SimStore`] wires one simulated cluster serving all of it:
//! every register gets its own writer process and reader processes, every
//! server multiplexes per-register state through a
//! [`RegisterMux`](crate::runtime::RegisterMux), and [`SimStore::register`]
//! hands out typed [`SimRegister`] handles exposing the familiar
//! `write`/`read`/`invoke_*` operations.
//!
//! ```
//! use lucky_core::StoreConfig;
//! use lucky_types::{Params, RegisterId, Value};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let params = Params::new(1, 0, 1, 0)?;
//! let mut store = StoreConfig::synchronous(params).registers(4).build_sim();
//! for reg in RegisterId::all(4) {
//!     store.register(reg).write(Value::from_u64(100 + reg.0 as u64));
//! }
//! let r = store.register(RegisterId(2)).read(0);
//! assert_eq!(r.value.as_u64(), Some(102));
//! assert_eq!(r.reg, RegisterId(2));
//! store.check_atomicity()?; // every register independently atomic
//! # Ok(())
//! # }
//! ```

use crate::byz;
use crate::config::ProtocolConfig;
use crate::runtime::adapters::{ServerAutomaton, ServerCore, SessionAutomaton};
use crate::runtime::session::SessionConfig;
use crate::runtime::setup::{OpOutcome, Setup, SYNC_BOUND_MICROS};
use lucky_checker::Violations;
use lucky_log::LogCounters;
use lucky_sim::{NetworkModel, RunError, World};
use lucky_types::{
    BatchConfig, History, Message, Op, OpId, Params, ProcessId, ReaderId, RegisterId, ServerId,
    Time, TwoRoundParams, Value,
};
use std::path::PathBuf;
use std::sync::Arc;

/// Configuration of a store: the protocol variant, the network regime
/// and the shape of the register namespace.
///
/// The presets encode the two network regimes the paper distinguishes
/// (§2.3): `synchronous*` keeps every delay within the bound the clients'
/// timers assume (δ = [`SYNC_BOUND_MICROS`]), so operations are *lucky*
/// whenever they are contention-free; `asynchronous` draws delays far
/// beyond that bound. Chain [`StoreConfig::registers`] and
/// [`StoreConfig::readers_per_register`] to size the namespace (the
/// paper's single register is the default, `registers(1)`), then build a
/// runtime with [`StoreConfig::build_sim`] (or hand the config to
/// `lucky-net`'s `NetStore` for the threaded runtime).
#[derive(Clone, Debug)]
pub struct StoreConfig {
    /// Protocol variant and resilience parameters.
    pub setup: Setup,
    /// Protocol tunables (timers, fast paths, freezing).
    pub protocol: ProtocolConfig,
    /// Network delay model.
    pub net: NetworkModel,
    /// Simulation seed.
    pub seed: u64,
    /// Number of registers the store serves (≥ 1).
    pub registers: usize,
    /// Reader processes per register.
    pub readers_per_register: usize,
    /// Wire-message batching policy (off by default): when enabled, the
    /// world delivers same-destination messages as single batch events
    /// and servers re-batch their acks per sender.
    pub batch: BatchConfig,
    /// Per-operation client-session deadline in virtual microseconds
    /// (`None`, the default, never times out): an operation still
    /// pending this long after its invocation is abandoned by its
    /// session at exactly that tick, surfacing as
    /// [`RunError::OpFailed`](lucky_sim::RunError::OpFailed).
    pub op_deadline_micros: Option<u64>,
    /// When set, every server persists its per-register state in an
    /// append-only log under `<dir>/s<i>/` (one subdirectory per
    /// server), and [`SimStore::restart_server`] /
    /// [`SimStore::restart_server_at`] revive crashed servers by
    /// replaying those logs. `None` (the default) keeps servers purely
    /// in-memory — a restarted server comes back amnesiac.
    pub durable_dir: Option<PathBuf>,
    /// Tracing configuration (disabled by default): when enabled, the
    /// store keeps per-op latency histograms, lucky/slow fast-path
    /// counters and a bounded flight recorder, all surfaced through
    /// [`SimStore::trace`].
    pub trace: lucky_trace::TraceConfig,
    /// Number of independent server **groups** the register namespace is
    /// consistent-hashed across (1, the default, is the classic
    /// single-quorum store). A single-group config builds directly via
    /// [`StoreConfig::build_sim`] / `lucky-net`'s `NetStore`; a
    /// multi-group config is consumed by `lucky-shard`'s sharded stores,
    /// which build one engine — server set, router slot-space, stats and
    /// checker partition — *per group*, with [`StoreConfig::registers`]
    /// acting as each group's materialization quota.
    pub groups: usize,
    /// Per-group protocol setup overrides, keyed by group index: a group
    /// listed here runs its own quorum parameters (S, B and the timers
    /// derived from them) instead of the store-wide `setup`.
    /// Resolved through [`StoreConfig::setup_for`]; consumed by
    /// `lucky-shard`.
    pub group_setups: Vec<(u16, Setup)>,
}

impl StoreConfig {
    fn preset(setup: Setup, synchronous: bool) -> StoreConfig {
        let net = if synchronous {
            NetworkModel::uniform(SYNC_BOUND_MICROS / 2, SYNC_BOUND_MICROS)
        } else {
            // Delays up to 200δ: round-1 timers expire long before a
            // quorum assembles, so no operation is synchronous.
            NetworkModel::uniform(SYNC_BOUND_MICROS / 2, 200 * SYNC_BOUND_MICROS)
        };
        StoreConfig {
            setup,
            protocol: ProtocolConfig::for_sync_bound(SYNC_BOUND_MICROS),
            net,
            seed: 0,
            registers: 1,
            readers_per_register: 1,
            batch: BatchConfig::disabled(),
            op_deadline_micros: None,
            durable_dir: None,
            trace: lucky_trace::TraceConfig::disabled(),
            groups: 1,
            group_setups: Vec::new(),
        }
    }

    /// Atomic variant on a synchronous network.
    pub fn synchronous(params: Params) -> StoreConfig {
        StoreConfig::preset(Setup::Atomic(params), true)
    }

    /// Atomic variant on an asynchronous network (delays far beyond the
    /// bound the timers assume).
    pub fn asynchronous(params: Params) -> StoreConfig {
        StoreConfig::preset(Setup::Atomic(params), false)
    }

    /// Two-round variant (App. C) on a synchronous network.
    pub fn synchronous_two_round(params: TwoRoundParams) -> StoreConfig {
        StoreConfig::preset(Setup::TwoRound(params), true)
    }

    /// Regular variant (App. D) on a synchronous network.
    pub fn synchronous_regular(params: Params) -> StoreConfig {
        StoreConfig::preset(Setup::Regular(params), true)
    }

    /// Size the register namespace (chainable).
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero — a store serves at least one register.
    #[must_use]
    pub fn registers(mut self, n: usize) -> StoreConfig {
        assert!(n >= 1, "a store serves at least one register");
        self.registers = n;
        self
    }

    /// Reader processes per register (chainable).
    #[must_use]
    pub fn readers_per_register(mut self, n: usize) -> StoreConfig {
        self.readers_per_register = n;
        self
    }

    /// Replace the seed (chainable).
    #[must_use]
    pub fn with_seed(mut self, seed: u64) -> StoreConfig {
        self.seed = seed;
        self
    }

    /// Replace the network model (chainable).
    #[must_use]
    pub fn with_net(mut self, net: NetworkModel) -> StoreConfig {
        self.net = net;
        self
    }

    /// Replace the protocol tunables (chainable).
    #[must_use]
    pub fn with_protocol(mut self, protocol: ProtocolConfig) -> StoreConfig {
        self.protocol = protocol;
        self
    }

    /// Replace the wire-message batching policy (chainable).
    #[must_use]
    pub fn with_batch(mut self, batch: BatchConfig) -> StoreConfig {
        self.batch = batch;
        self
    }

    /// Give every client session a per-operation deadline (chainable).
    #[must_use]
    pub fn with_op_deadline(mut self, micros: u64) -> StoreConfig {
        self.op_deadline_micros = Some(micros);
        self
    }

    /// Enable (or reconfigure) op tracing (chainable). See
    /// [`StoreConfig::trace`].
    #[must_use]
    pub fn with_trace(mut self, trace: lucky_trace::TraceConfig) -> StoreConfig {
        self.trace = trace;
        self
    }

    /// Persist every server's per-register state under `dir` (chainable):
    /// state survives server crashes and is replayed on restart. See
    /// [`StoreConfig::durable_dir`].
    #[must_use]
    pub fn durable(mut self, dir: impl Into<PathBuf>) -> StoreConfig {
        self.durable_dir = Some(dir.into());
        self
    }

    /// Shard the register namespace across `n` independent server groups
    /// (chainable). See [`StoreConfig::groups`].
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero — a store serves at least one group.
    #[must_use]
    pub fn groups(mut self, n: usize) -> StoreConfig {
        assert!(n >= 1, "a store serves at least one server group");
        self.groups = n;
        self
    }

    /// Give group `g` its own protocol setup — quorum shape, Byzantine
    /// budget and derived timers — instead of the store-wide one
    /// (chainable). Accepts a [`Setup`] directly or anything converting
    /// into one (`Params`, `TwoRoundParams`). Re-setting a group
    /// replaces its previous override.
    #[must_use]
    pub fn group_setup(mut self, g: u16, setup: impl Into<Setup>) -> StoreConfig {
        let setup = setup.into();
        match self.group_setups.iter_mut().find(|(i, _)| *i == g) {
            Some((_, s)) => *s = setup,
            None => self.group_setups.push((g, setup)),
        }
        self
    }

    /// The protocol setup group `g` runs: its override if present,
    /// otherwise the store-wide `setup`.
    pub fn setup_for(&self, g: lucky_types::GroupId) -> Setup {
        self.group_setups.iter().find(|(i, _)| *i == g.0).map(|(_, s)| *s).unwrap_or(self.setup)
    }

    /// Build a simulated store.
    ///
    /// # Panics
    ///
    /// Panics on a multi-group config: one `SimStore` is one group's
    /// engine. Multi-group configs build through `lucky-shard`'s
    /// `ShardSimStore`, which calls this once per group.
    pub fn build_sim(self) -> SimStore {
        SimStore::new(self)
    }
}

/// A simulated multi-register store: one server cluster of the configured
/// variant serving `registers` independent SWMR registers, each with its
/// own writer and `readers_per_register` readers.
///
/// The paper's single register is a one-register store
/// (`registers(1)`, the default) addressed as [`RegisterId::DEFAULT`].
/// Atomicity and regularity checks partition the history per register,
/// since registers are independent objects.
#[derive(Debug)]
pub struct SimStore {
    setup: Setup,
    world: World<Message>,
    registers: usize,
    readers_per_register: usize,
    batch: BatchConfig,
    durable_dir: Option<PathBuf>,
    /// Durability counters shared by every server's backend across all
    /// incarnations (always present; stays zero without a durable dir).
    counters: Arc<LogCounters>,
    /// Op tracer shared with the world (always present; a disabled
    /// tracer records nothing and costs one relaxed load per hook).
    tracer: Arc<lucky_trace::Tracer>,
}

impl SimStore {
    /// Build a store from `cfg`. Every process is built through the
    /// [`Setup`] factories, so the constructor is variant-agnostic.
    pub fn new(cfg: StoreConfig) -> SimStore {
        let StoreConfig {
            setup,
            protocol,
            net,
            seed,
            registers,
            readers_per_register,
            batch,
            op_deadline_micros,
            durable_dir,
            trace,
            groups,
            group_setups: _,
        } = cfg;
        assert!(registers >= 1, "a store serves at least one register");
        assert!(
            groups == 1,
            "a SimStore is one group's engine; multi-group configs build \
             through lucky-shard's ShardSimStore"
        );
        assert!(
            registers * readers_per_register <= u16::MAX as usize,
            "reader namespace exceeds the ReaderId range"
        );
        let mut world = World::new(net, seed);
        world.set_batch(batch);
        let tracer = Arc::new(lucky_trace::Tracer::new(trace));
        world.set_tracer(Arc::clone(&tracer));
        let session = SessionConfig { deadline_micros: op_deadline_micros };
        let counters = Arc::new(LogCounters::default());
        for reg in RegisterId::all(registers) {
            world.add_process(
                ProcessId::writer(reg),
                Box::new(SessionAutomaton::new(setup.make_writer_session(reg, protocol, session))),
            );
            for j in 0..readers_per_register {
                let rid = reg.reader(readers_per_register, j as u16);
                world.add_process(
                    ProcessId::Reader(rid),
                    Box::new(SessionAutomaton::new(
                        setup.make_reader_session(reg, rid, protocol, session),
                    )),
                );
            }
        }
        for s in ServerId::all(setup.server_count()) {
            let durable = durable_dir.as_ref().map(|d| (d.clone(), Arc::clone(&counters)));
            world.add_process(
                ProcessId::Server(s),
                Box::new(ServerAutomaton(setup.make_server_core(s.0, batch, durable))),
            );
        }
        SimStore {
            setup,
            world,
            registers,
            readers_per_register,
            batch,
            durable_dir,
            counters,
            tracer,
        }
    }

    /// The protocol setup this store runs.
    pub fn setup(&self) -> Setup {
        self.setup
    }

    /// Number of servers.
    pub fn server_count(&self) -> usize {
        self.setup.server_count()
    }

    /// Number of registers served.
    pub fn register_count(&self) -> usize {
        self.registers
    }

    /// Reader processes per register.
    pub fn readers_per_register(&self) -> usize {
        self.readers_per_register
    }

    /// Current virtual time.
    pub fn now(&self) -> Time {
        self.world.now()
    }

    /// A handle on register `reg`, exposing `write`/`read`/`invoke_*`.
    ///
    /// The handle borrows the store, so use it one at a time; interleave
    /// registers by invoking (`invoke_write`/`invoke_read`) on several
    /// handles and then driving the world with
    /// [`SimStore::run_until_all_complete`].
    ///
    /// # Panics
    ///
    /// Panics if `reg` is outside the configured namespace.
    pub fn register(&mut self, reg: RegisterId) -> SimRegister<'_> {
        assert!(
            reg.index() < self.registers,
            "register {reg} outside the namespace (0..{})",
            self.registers
        );
        SimRegister { store: self, reg }
    }

    /// The global [`ReaderId`] of register `reg`'s `j`-th reader (see
    /// [`RegisterId::reader`] for the allocation scheme).
    pub fn reader_id(&self, reg: RegisterId, j: u16) -> ReaderId {
        assert!((j as usize) < self.readers_per_register, "reader index out of range");
        reg.reader(self.readers_per_register, j)
    }

    // ------------------------------------------------------------------
    // Execution
    // ------------------------------------------------------------------

    /// Run until `op` completes.
    ///
    /// # Errors
    ///
    /// Propagates [`RunError`] when the run stalls first.
    pub fn run_until_complete(&mut self, op: OpId) -> Result<OpOutcome, RunError> {
        self.world.run_until_complete(op).map(OpOutcome::from_record)
    }

    /// Run until each of `ops` completes (any interleaving).
    ///
    /// # Errors
    ///
    /// Propagates [`RunError`] when the run stalls first.
    pub fn run_until_all_complete(&mut self, ops: &[OpId]) -> Result<(), RunError> {
        self.world.run_until_all_complete(ops)
    }

    /// The outcome of a completed (or still-pending) operation.
    pub fn outcome(&self, op: OpId) -> OpOutcome {
        OpOutcome::from_record(self.world.record(op))
    }

    /// `true` iff `op` has completed.
    pub fn is_complete(&self, op: OpId) -> bool {
        self.world.record(op).is_complete()
    }

    /// Advance virtual time, processing everything scheduled on the way.
    pub fn run_until(&mut self, deadline: Time) {
        self.world.run_until(deadline);
    }

    /// Advance virtual time by `micros` from now.
    pub fn run_for(&mut self, micros: u64) {
        let deadline = self.world.now() + micros;
        self.world.run_until(deadline);
    }

    /// Drain the event queue (bounded); returns steps taken.
    pub fn run_until_idle(&mut self, max_steps: u64) -> u64 {
        self.world.run_until_idle(max_steps)
    }

    // ------------------------------------------------------------------
    // Fault injection
    // ------------------------------------------------------------------

    /// Crash server `i` immediately (it stops serving *every* register).
    pub fn crash_server(&mut self, i: u16) {
        self.world.crash_now(ProcessId::Server(ServerId(i)));
    }

    /// Crash server `i` at time `at`.
    pub fn crash_server_at(&mut self, i: u16, at: Time) {
        self.world.crash_at(ProcessId::Server(ServerId(i)), at);
    }

    /// Crash register `reg`'s writer immediately.
    pub fn crash_writer(&mut self, reg: RegisterId) {
        self.world.crash_now(ProcessId::writer(reg));
    }

    /// Crash register `reg`'s writer at time `at`.
    pub fn crash_writer_at(&mut self, reg: RegisterId, at: Time) {
        self.world.crash_at(ProcessId::writer(reg), at);
    }

    /// Restart server `i` immediately: a fresh server core replaces the
    /// crashed one and the process is alive again. On a durable store
    /// the core replays the server's on-disk logs (lazily, per register,
    /// on first contact) — exactly the state its previous incarnation
    /// persisted before every ack. On an in-memory store it comes back
    /// amnesiac, modeling the paper's crash-stop server that rejoins
    /// empty.
    pub fn restart_server(&mut self, i: u16) {
        let durable = self.durable_dir.as_ref().map(|d| (d.clone(), Arc::clone(&self.counters)));
        self.world.add_process(
            ProcessId::Server(ServerId(i)),
            Box::new(ServerAutomaton(self.setup.make_server_core(i, self.batch, durable))),
        );
    }

    /// Restart server `i` at time `at`. The replacement core is built
    /// *at that instant*, so on a durable store the log replay reflects
    /// everything persisted up to the restart point of the schedule —
    /// not the (earlier) moment the restart was scheduled.
    pub fn restart_server_at(&mut self, i: u16, at: Time) {
        let setup = self.setup;
        let batch = self.batch;
        let durable = self.durable_dir.as_ref().map(|d| (d.clone(), Arc::clone(&self.counters)));
        self.world.restart_at(
            ProcessId::Server(ServerId(i)),
            at,
            Box::new(move || Box::new(ServerAutomaton(setup.make_server_core(i, batch, durable)))),
        );
    }

    /// Total log replays performed by restarted servers (over all
    /// registers and incarnations). Zero on a non-durable store.
    pub fn recoveries(&self) -> u64 {
        self.counters.recoveries()
    }

    /// Total bytes of committed log data written + replayed across every
    /// server backend. Zero on a non-durable store.
    pub fn log_bytes(&self) -> u64 {
        self.counters.log_bytes()
    }

    /// Replace server `i` with a Byzantine behaviour (see [`byz`]). The
    /// behaviour answers *all* registers — a malicious server is malicious
    /// towards the whole namespace.
    pub fn install_byzantine(&mut self, i: u16, core: Box<dyn ServerCore>) {
        self.world.add_process(ProcessId::Server(ServerId(i)), Box::new(ServerAutomaton(core)));
    }

    /// Replace server `i` with the [`byz::ForgeValue`] behaviour — the
    /// most common attack in the test sweeps.
    pub fn install_forge_value(&mut self, i: u16, pair: lucky_types::TsVal) {
        self.install_byzantine(i, Box::new(byz::ForgeValue::new(pair)));
    }

    /// Full access to the underlying world (gates, custom scheduling).
    pub fn world_mut(&mut self) -> &mut World<Message> {
        &mut self.world
    }

    /// Read-only access to the underlying world.
    pub fn world(&self) -> &World<Message> {
        &self.world
    }

    // ------------------------------------------------------------------
    // History and checking
    // ------------------------------------------------------------------

    /// The operation history so far (all registers interleaved; partition
    /// with [`History::partition_by_register`]).
    pub fn history(&self) -> &History {
        self.world.history()
    }

    /// Check every register's sub-history against the atomicity
    /// conditions (§2.2). Registers are independent objects, so the
    /// conditions apply per register.
    ///
    /// # Errors
    ///
    /// Returns the violations found, across all registers.
    pub fn check_atomicity(&self) -> Result<(), Violations> {
        lucky_checker::assert_atomic_per_register_traced(self.history(), &self.tracer)
    }

    /// Check every register's sub-history against the regularity
    /// conditions (App. D).
    ///
    /// # Errors
    ///
    /// Returns the violations found, across all registers.
    pub fn check_regularity(&self) -> Result<(), Violations> {
        lucky_checker::assert_regular_per_register_traced(self.history(), &self.tracer)
    }

    // ------------------------------------------------------------------
    // Tracing
    // ------------------------------------------------------------------

    /// The shared op tracer (for wiring into external sinks).
    pub fn tracer(&self) -> &Arc<lucky_trace::Tracer> {
        &self.tracer
    }

    /// A rollup of everything the tracer has seen: lucky/slow op counts,
    /// per-phase latency histograms (including the durable-log persist
    /// histogram), recent flight-recorder events and the last dump.
    /// Meaningful only when the store was built
    /// [`StoreConfig::with_trace`]-enabled; a disabled store reports all
    /// zeros.
    pub fn trace(&self) -> lucky_trace::TraceReport {
        let mut report = self.tracer.report();
        report.persist_latency = self.counters.persist_latency();
        report
    }
}

/// A typed handle on one register of a [`SimStore`], exposing the
/// single-register operation surface.
///
/// `j` arguments index the register's *own* readers (`0 ..
/// readers_per_register`); the handle translates to global reader ids.
#[derive(Debug)]
pub struct SimRegister<'a> {
    store: &'a mut SimStore,
    reg: RegisterId,
}

impl SimRegister<'_> {
    /// The register this handle addresses.
    pub fn id(&self) -> RegisterId {
        self.reg
    }

    /// Invoke `WRITE(v)` on this register (one microsecond from now, so
    /// back-to-back helper calls stay strictly ordered); returns the
    /// operation id for scripting.
    pub fn invoke_write(&mut self, v: Value) -> OpId {
        let at = self.store.world.now() + 1;
        self.invoke_write_at(at, v)
    }

    /// Invoke `WRITE(v)` at a future instant.
    pub fn invoke_write_at(&mut self, at: Time, v: Value) -> OpId {
        self.store.world.invoke_on_at(at, ProcessId::writer(self.reg), self.reg, Op::Write(v))
    }

    /// Invoke `READ()` on this register's reader `j` (one microsecond
    /// from now).
    pub fn invoke_read(&mut self, j: u16) -> OpId {
        let at = self.store.world.now() + 1;
        self.invoke_read_at(at, j)
    }

    /// Invoke `READ()` on reader `j` at a future instant.
    pub fn invoke_read_at(&mut self, at: Time, j: u16) -> OpId {
        let rid = self.store.reader_id(self.reg, j);
        self.store.world.invoke_on_at(at, ProcessId::Reader(rid), self.reg, Op::Read)
    }

    /// `WRITE(v)` to completion.
    ///
    /// # Panics
    ///
    /// Panics if the write cannot complete (too many failures / gates) —
    /// use [`SimRegister::try_write`] to handle that case.
    pub fn write(&mut self, v: Value) -> OpOutcome {
        self.try_write(v).expect("WRITE stalled; use try_write for fallible runs")
    }

    /// `WRITE(v)` to completion, propagating stalls.
    ///
    /// # Errors
    ///
    /// Returns [`RunError`] when the operation cannot complete.
    pub fn try_write(&mut self, v: Value) -> Result<OpOutcome, RunError> {
        let op = self.invoke_write(v);
        self.store.run_until_complete(op)
    }

    /// `READ()` on reader `j` to completion.
    ///
    /// # Panics
    ///
    /// Panics if the read cannot complete — use [`SimRegister::try_read`]
    /// for fallible runs.
    pub fn read(&mut self, j: u16) -> OpOutcome {
        self.try_read(j).expect("READ stalled; use try_read for fallible runs")
    }

    /// `READ()` to completion, propagating stalls.
    ///
    /// # Errors
    ///
    /// Returns [`RunError`] when the operation cannot complete.
    pub fn try_read(&mut self, j: u16) -> Result<OpOutcome, RunError> {
        let op = self.invoke_read(j);
        self.store.run_until_complete(op)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lucky_types::OpKind;

    fn params() -> Params {
        Params::new(1, 0, 1, 0).unwrap()
    }

    /// t = 2, b = 1, fw = 1, fr = 0 (S = 6).
    fn params_s6() -> Params {
        Params::new(2, 1, 1, 0).unwrap()
    }

    #[test]
    fn read_of_empty_register_returns_bot() {
        let mut store = StoreConfig::synchronous(params_s6()).build_sim();
        let r = store.register(RegisterId::DEFAULT).read(0);
        assert!(r.value.is_bot());
        assert!(r.fast);
        store.check_atomicity().unwrap();
    }

    #[test]
    fn read_slow_when_failures_exceed_fr() {
        // fr = 0 guarantees fast lucky reads only with zero failures. The
        // adversarial pattern needs a server that *missed* the fast write
        // (its PW stays in transit) plus a crash of a holder: then only
        // S − fw − 1 = 4 < fastpw pw-copies respond and the read goes slow.
        let mut store = StoreConfig::synchronous(params_s6()).build_sim();
        store.world_mut().hold(ProcessId::Writer, ProcessId::Server(ServerId(4)));
        let w = store.register(RegisterId::DEFAULT).write(Value::from_u64(1));
        assert!(w.fast, "S - fw = 5 acks suffice");
        store.crash_server(5); // a holder of the value
        let r = store.register(RegisterId::DEFAULT).read(0);
        assert!(!r.fast);
        assert_eq!(r.rounds, 4, "1 read round + 3 write-back rounds");
        assert_eq!(r.value.as_u64(), Some(1));
        store.check_atomicity().unwrap();
    }

    #[test]
    fn asynchronous_network_forces_slow_operations() {
        let mut store = StoreConfig::asynchronous(params_s6()).with_seed(3).build_sim();
        let w = store.register(RegisterId::DEFAULT).write(Value::from_u64(1));
        let r = store.register(RegisterId::DEFAULT).read(0);
        assert_eq!(r.value.as_u64(), Some(1));
        // With delays up to 200δ the timer (2δ) always expires first and
        // the quorum-sized view is almost never fast; atomicity holds
        // regardless.
        assert!(!w.fast || !r.fast);
        store.check_atomicity().unwrap();
    }

    #[test]
    fn byzantine_forger_cannot_corrupt_reads() {
        use lucky_types::{Seq, TsVal};
        let mut store = StoreConfig::synchronous(params_s6()).build_sim();
        store.install_forge_value(2, TsVal::new(Seq(99), Value::from_u64(666)));
        store.register(RegisterId::DEFAULT).write(Value::from_u64(1));
        let r = store.register(RegisterId::DEFAULT).read(0);
        assert_eq!(r.value.as_u64(), Some(1));
        store.check_atomicity().unwrap();
    }

    #[test]
    fn eight_registers_hold_independent_values() {
        let mut store = StoreConfig::synchronous(params()).registers(8).build_sim();
        for reg in RegisterId::all(8) {
            store.register(reg).write(Value::from_u64(100 + reg.0 as u64));
        }
        for reg in RegisterId::all(8) {
            let r = store.register(reg).read(0);
            assert_eq!(r.value.as_u64(), Some(100 + reg.0 as u64));
            assert_eq!(r.reg, reg);
            assert_eq!(r.kind, OpKind::Read);
        }
        store.check_atomicity().unwrap();
    }

    #[test]
    fn interleaved_registers_stay_isolated() {
        let mut store =
            StoreConfig::synchronous(params()).registers(4).readers_per_register(2).build_sim();
        // Invoke one write per register at the same instant, then one read
        // per register while the writes are still in flight.
        let mut ops = Vec::new();
        for reg in RegisterId::all(4) {
            ops.push(store.register(reg).invoke_write(Value::from_u64(10 + reg.0 as u64)));
        }
        for reg in RegisterId::all(4) {
            ops.push(store.register(reg).invoke_read(1));
        }
        store.run_until_all_complete(&ops).unwrap();
        store.check_atomicity().unwrap();
        // A second, sequential read per register sees that register's value.
        for reg in RegisterId::all(4) {
            let r = store.register(reg).read(0);
            assert_eq!(r.value.as_u64(), Some(10 + reg.0 as u64), "register {reg}");
        }
    }

    #[test]
    fn outcome_carries_register_and_kind() {
        let mut store = StoreConfig::synchronous(params()).registers(2).build_sim();
        let w = store.register(RegisterId(1)).write(Value::from_u64(9));
        assert_eq!(w.reg, RegisterId(1));
        assert_eq!(w.kind, OpKind::Write);
        assert_eq!(w.value.as_u64(), Some(9));
    }

    #[test]
    fn default_register_writer_is_the_classic_writer_process() {
        let store = StoreConfig::synchronous(params()).registers(3).build_sim();
        assert_eq!(ProcessId::writer(RegisterId::DEFAULT), ProcessId::Writer);
        assert_eq!(store.reader_id(RegisterId(0), 0), ReaderId(0));
        assert_eq!(store.reader_id(RegisterId(2), 0), ReaderId(2));
    }

    #[test]
    fn two_round_and_regular_stores_serve_many_registers() {
        let trp = TwoRoundParams::new(1, 0, 1).unwrap();
        let mut store = StoreConfig::synchronous_two_round(trp).registers(3).build_sim();
        for reg in RegisterId::all(3) {
            let w = store.register(reg).write(Value::from_u64(1 + reg.0 as u64));
            assert_eq!(w.rounds, 2, "App. C: always two rounds");
            assert_eq!(store.register(reg).read(0).value.as_u64(), Some(1 + reg.0 as u64));
        }
        store.check_atomicity().unwrap();

        let p = Params::trading_reads(1, 0).unwrap();
        let mut store = StoreConfig::synchronous_regular(p).registers(3).build_sim();
        for reg in RegisterId::all(3) {
            store.register(reg).write(Value::from_u64(1 + reg.0 as u64));
            assert_eq!(store.register(reg).read(0).value.as_u64(), Some(1 + reg.0 as u64));
        }
        store.check_regularity().unwrap();
    }

    #[test]
    fn crashing_one_registers_writer_leaves_others_live() {
        let mut store = StoreConfig::synchronous(params()).registers(2).build_sim();
        store.crash_writer(RegisterId(0));
        assert!(store.register(RegisterId(0)).try_write(Value::from_u64(1)).is_err());
        let w = store.register(RegisterId(1)).try_write(Value::from_u64(2)).unwrap();
        assert_eq!(w.value.as_u64(), Some(2));
    }

    #[test]
    #[should_panic(expected = "outside the namespace")]
    fn out_of_namespace_register_is_rejected() {
        let mut store = StoreConfig::synchronous(params()).registers(2).build_sim();
        store.register(RegisterId(2));
    }

    #[test]
    fn trace_report_counts_lucky_ops_on_a_quiet_run() {
        let mut store = StoreConfig::synchronous(params())
            .registers(2)
            .with_trace(lucky_trace::TraceConfig::enabled())
            .build_sim();
        for reg in RegisterId::all(2) {
            store.register(reg).write(Value::from_u64(40 + reg.0 as u64));
            store.register(reg).read(0);
        }
        let report = store.trace();
        assert_eq!(report.fast_writes + report.slow_writes, 2);
        assert_eq!(report.fast_reads + report.slow_reads, 2);
        // Synchronous, contention-free: every read takes the fast path.
        assert_eq!(report.slow_reads, 0);
        assert!((report.lucky_read_ratio() - 1.0).abs() < f64::EPSILON);
        assert_eq!(report.read_latency.count(), 2);
        assert_eq!(report.timeouts, 0);
        assert!(!report.recent.is_empty(), "flight recorder saw the ops");
        // The rollup renders and serializes without panicking.
        assert!(report.render_text().contains("reads"));
        assert!(report.to_json().contains("\"fast_reads\""));
    }

    #[test]
    fn disabled_trace_reports_all_zeros() {
        let mut store = StoreConfig::synchronous(params()).build_sim();
        store.register(RegisterId(0)).write(Value::from_u64(1));
        store.register(RegisterId(0)).read(0);
        let report = store.trace();
        assert_eq!(report.fast_reads + report.slow_reads, 0);
        assert_eq!(report.read_latency.count(), 0);
        assert!(report.recent.is_empty());
    }

    #[test]
    fn traced_store_rolls_in_the_persist_histogram() {
        let dir = lucky_log::TempDir::new("simstore-trace-persist");
        let mut store = StoreConfig::synchronous(params())
            .durable(dir.path())
            .with_trace(lucky_trace::TraceConfig::enabled())
            .build_sim();
        store.register(RegisterId(0)).write(Value::from_u64(7));
        let report = store.trace();
        assert!(report.persist_latency.count() > 0, "durable appends were timed");
    }

    #[test]
    fn durable_servers_survive_a_full_cluster_restart() {
        let dir = lucky_log::TempDir::new("simstore-full-restart");
        let mut store =
            StoreConfig::synchronous(params()).registers(2).durable(dir.path()).build_sim();
        store.register(RegisterId(0)).write(Value::from_u64(7));
        store.register(RegisterId(1)).write(Value::from_u64(8));
        // Crash EVERY server, then restart them all: the values can only
        // come back from the logs.
        for i in 0..store.server_count() as u16 {
            store.crash_server(i);
        }
        for i in 0..store.server_count() as u16 {
            store.restart_server(i);
        }
        assert_eq!(store.register(RegisterId(0)).read(0).value.as_u64(), Some(7));
        assert_eq!(store.register(RegisterId(1)).read(0).value.as_u64(), Some(8));
        assert!(store.recoveries() > 0, "restarted servers replayed their logs");
        assert!(store.log_bytes() > 0, "committed state was written");
        store.check_atomicity().unwrap();
    }

    #[test]
    fn amnesiac_restart_forgets_but_the_quorum_still_answers() {
        let p = Params::new(2, 1, 1, 0).unwrap(); // S = 6: tolerates restarts
        let mut store = StoreConfig::synchronous(p).build_sim();
        store.register(RegisterId(0)).write(Value::from_u64(5));
        store.crash_server(0);
        store.restart_server(0);
        // No durable dir: server 0 came back empty, but the quorum holds
        // the value and the read is still correct.
        assert_eq!(store.register(RegisterId(0)).read(0).value.as_u64(), Some(5));
        assert_eq!(store.recoveries(), 0, "nothing to replay without a log");
        assert_eq!(store.log_bytes(), 0);
        store.check_atomicity().unwrap();
    }

    #[test]
    fn scheduled_restart_replays_state_persisted_after_scheduling() {
        let dir = lucky_log::TempDir::new("simstore-sched-restart");
        let mut store = StoreConfig::synchronous(params()).durable(dir.path()).build_sim();
        // Schedule the restart FIRST, then write: the lazily-built
        // recovery core must still see the write, proving the log is
        // replayed at the restart instant.
        store.crash_server_at(0, Time(10_000));
        store.restart_server_at(0, Time(20_000));
        store.register(RegisterId(0)).write(Value::from_u64(3));
        store.run_until(Time(30_000));
        assert_eq!(store.register(RegisterId(0)).read(0).value.as_u64(), Some(3));
        assert!(store.recoveries() > 0, "the restarted server replayed its log");
        store.check_atomicity().unwrap();
    }
}
