//! [`Setup`] — which protocol variant a runtime deploys, and the
//! factories that build its processes — plus the flattened [`OpOutcome`]
//! every simulated operation reports.

use crate::config::{ProtocolConfig, Variant};
use crate::runtime::adapters::{ClientCore, ServerCore};
use crate::runtime::mux::RegisterMux;
use crate::runtime::session::{ClientSession, SessionConfig};
use crate::{atomic, regular, tworound};
use lucky_log::{DurableBackend, LogCounters};
use lucky_types::{
    BatchConfig, OpId, OpKind, OpRecord, Params, ReaderId, RegisterId, TwoRoundParams, Value,
};
use std::path::PathBuf;
use std::sync::Arc;

/// Which protocol instance a store runs, with its parameters.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Setup {
    /// The atomic algorithm (§3) with `Params` thresholds.
    Atomic(Params),
    /// The two-round algorithm (App. C).
    TwoRound(TwoRoundParams),
    /// The regular variant (App. D); use [`Params::trading_reads`].
    Regular(Params),
}

impl Setup {
    /// Number of servers this setup deploys.
    pub fn server_count(&self) -> usize {
        match self {
            Setup::Atomic(p) | Setup::Regular(p) => p.server_count(),
            Setup::TwoRound(p) => p.server_count(),
        }
    }

    /// The variant tag.
    pub fn variant(&self) -> Variant {
        match self {
            Setup::Atomic(_) => Variant::Atomic,
            Setup::TwoRound(_) => Variant::TwoRound,
            Setup::Regular(_) => Variant::Regular,
        }
    }

    // The factories below are the single place a variant name maps to
    // concrete protocol cores. Every runtime — the simulator's
    // [`SimStore`](crate::SimStore) and `lucky-net`'s `NetStore` — builds
    // its processes through them, so adding a variant (or swapping a
    // policy) lands in one match arm per role.

    /// Build this variant's writer core for register `reg`.
    pub fn make_writer(&self, reg: RegisterId, protocol: ProtocolConfig) -> Box<dyn ClientCore> {
        match *self {
            Setup::Atomic(p) => Box::new(atomic::AtomicWriter::for_register(reg, p, protocol)),
            Setup::TwoRound(p) => Box::new(tworound::TwoRoundWriter::for_register(reg, p)),
            Setup::Regular(p) => Box::new(regular::RegularWriter::for_register(reg, p, protocol)),
        }
    }

    /// Build this variant's reader core with identity `id`, reading
    /// register `reg`.
    pub fn make_reader(
        &self,
        reg: RegisterId,
        id: ReaderId,
        protocol: ProtocolConfig,
    ) -> Box<dyn ClientCore> {
        match *self {
            Setup::Atomic(p) => Box::new(atomic::AtomicReader::for_register(reg, id, p, protocol)),
            Setup::TwoRound(p) => {
                Box::new(tworound::TwoRoundReader::for_register(reg, id, p, protocol))
            }
            Setup::Regular(p) => {
                Box::new(regular::RegularReader::for_register(reg, id, p, protocol))
            }
        }
    }

    /// Build this variant's writer as a ready-to-drive [`ClientSession`]
    /// for register `reg` — the form every runtime consumes.
    pub fn make_writer_session(
        &self,
        reg: RegisterId,
        protocol: ProtocolConfig,
        session: SessionConfig,
    ) -> ClientSession {
        ClientSession::new(
            lucky_types::ProcessId::writer(reg),
            reg,
            self.make_writer(reg, protocol),
            session,
        )
    }

    /// Build this variant's reader with identity `id` as a ready-to-drive
    /// [`ClientSession`] for register `reg`.
    pub fn make_reader_session(
        &self,
        reg: RegisterId,
        id: ReaderId,
        protocol: ProtocolConfig,
        session: SessionConfig,
    ) -> ClientSession {
        ClientSession::new(
            lucky_types::ProcessId::Reader(id),
            reg,
            self.make_reader(reg, id, protocol),
            session,
        )
    }

    /// Build this variant's (correct) single-register server core — the
    /// building block [`RegisterMux`] instantiates per register.
    pub fn make_server(&self) -> Box<dyn ServerCore> {
        match self {
            Setup::Atomic(_) => Box::new(atomic::AtomicServer::new()),
            Setup::TwoRound(_) => Box::new(tworound::TwoRoundServer::new()),
            Setup::Regular(_) => Box::new(regular::RegularServer::new()),
        }
    }

    /// Build server `i`'s core: a [`RegisterMux`] keeping one
    /// [`Setup::make_server`] core per register, created lazily on first
    /// contact and re-batching its acks per `batch`. This is what every
    /// runtime deploys at a server's address (and rebuilds on a restart),
    /// so one server set serves the whole register namespace.
    ///
    /// With `durable = Some((dir, counters))` the per-register state
    /// lives in an append-only log under `<dir>/s<i>/`: it is reloaded on
    /// first contact and re-persisted after every delivered message,
    /// *before* any reply leaves the server — so a crash-restarted server
    /// rejoins the quorum with exactly the state its previous incarnation
    /// acked. `None` serves from memory.
    ///
    /// # Panics
    ///
    /// Panics if the server's log directory cannot be created.
    pub fn make_server_core(
        &self,
        i: u16,
        batch: BatchConfig,
        durable: Option<(PathBuf, Arc<LogCounters>)>,
    ) -> Box<dyn ServerCore> {
        match durable {
            Some((dir, counters)) => {
                let backend = DurableBackend::open_with(dir.join(format!("s{i}")), counters)
                    .expect("create the server's log directory");
                Box::new(RegisterMux::with_backend(*self, batch, Box::new(backend)))
            }
            None => Box::new(RegisterMux::with_batch(*self, batch)),
        }
    }

    /// Rebuild this variant's single-register server core from a
    /// [`ServerCore::snapshot`] image, or `None` when the image does not
    /// decode (callers fall back to a fresh core — the safe direction:
    /// the log layer already discarded torn records, so a non-decoding
    /// snapshot means an old-format or foreign-variant file).
    pub fn restore_server(&self, snapshot: &[u8]) -> Option<Box<dyn ServerCore>> {
        match self {
            Setup::Atomic(_) => atomic::AtomicServer::from_snapshot(snapshot)
                .ok()
                .map(|s| Box::new(s) as Box<dyn ServerCore>),
            Setup::TwoRound(_) => tworound::TwoRoundServer::from_snapshot(snapshot)
                .ok()
                .map(|s| Box::new(s) as Box<dyn ServerCore>),
            Setup::Regular(_) => regular::RegularServer::from_snapshot(snapshot)
                .ok()
                .map(|s| Box::new(s) as Box<dyn ServerCore>),
        }
    }
}

/// `Params` defaults to the main atomic algorithm (§3); build
/// [`Setup::Regular`] explicitly for the Appendix D variant.
impl From<Params> for Setup {
    fn from(params: Params) -> Setup {
        Setup::Atomic(params)
    }
}

impl From<TwoRoundParams> for Setup {
    fn from(params: TwoRoundParams) -> Setup {
        Setup::TwoRound(params)
    }
}

/// The synchrony bound δ used by the presets, in microseconds.
pub const SYNC_BOUND_MICROS: u64 = 100;

/// The outcome of one completed operation, flattened for assertions and
/// table rows.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct OpOutcome {
    /// Operation id.
    pub id: OpId,
    /// The register the operation targeted.
    pub reg: RegisterId,
    /// Whether the operation was a WRITE or a READ.
    pub kind: OpKind,
    /// Value read (for READs) or written (for WRITEs).
    pub value: Value,
    /// Communication round-trips used.
    pub rounds: u32,
    /// `true` iff the operation was fast (one round-trip, §2.4).
    pub fast: bool,
    /// Latency in virtual microseconds.
    pub latency: u64,
    /// Messages sent by + delivered to the client during the operation.
    pub msgs: u64,
    /// Estimated wire bytes for those messages.
    pub bytes: u64,
}

impl OpOutcome {
    pub(crate) fn from_record(rec: &OpRecord) -> OpOutcome {
        let value = match (&rec.result, &rec.op) {
            (Some(v), _) => v.clone(),
            (None, lucky_types::Op::Write(v)) => v.clone(),
            (None, lucky_types::Op::Read) => Value::Bot,
        };
        OpOutcome {
            id: rec.id,
            reg: rec.reg,
            kind: rec.op.kind(),
            value,
            rounds: rec.rounds,
            fast: rec.fast,
            latency: rec.latency().unwrap_or(0),
            msgs: rec.msgs,
            bytes: rec.bytes,
        }
    }
}
