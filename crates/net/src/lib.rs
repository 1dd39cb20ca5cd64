//! # lucky-net
//!
//! A wall-clock runtime for the lucky storage protocols.
//!
//! The same sans-io cores that run under the deterministic simulator run
//! here over real threads, channels and (optionally) loopback sockets:
//! every server is a thread, a router thread injects configurable
//! per-message latency, and shard worker threads drive the client
//! sessions for the register handles callers take. [`NetStore`] is the
//! one way to assemble it; a single-register deployment is a store with
//! `registers(1)`.
//!
//! The runtime is **variant-generic**: stores are built from the same
//! `Setup` enum the simulator uses, and every process comes out of the
//! `Setup` factories in `lucky-core`, which in turn instantiate the
//! shared round-engine kernel (`lucky_core::engine`) with the chosen
//! variant's policy. The atomic (§3), two-round (App. C) and regular
//! (App. D) algorithms therefore all run on real threads with no
//! variant-specific code in this crate:
//!
//! ```
//! use lucky_net::{NetConfig, NetStore};
//! use lucky_types::{RegisterId, TwoRoundParams, Value};
//!
//! let params = TwoRoundParams::new(1, 0, 1).unwrap();
//! let mut store = NetStore::builder(params, NetConfig::default()).registers(1).build();
//! let register = store.register(RegisterId(0)).expect("register handle");
//! let w = register.write(Value::from_u64(1)).unwrap();
//! assert_eq!((w.rounds, w.fast), (2, false)); // App. C: always two rounds
//! store.shutdown();
//! ```
//!
//! ```
//! use lucky_net::{NetConfig, NetStore};
//! use lucky_types::{Params, RegisterId, Value};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let params = Params::new(1, 0, 1, 0)?;
//! let mut store =
//!     NetStore::builder(params, NetConfig::default()).registers(1).readers_per_register(2).build();
//! let register = store.register(RegisterId(0))?;
//!
//! let w = register.write(Value::from_u64(42))?;
//! assert!(w.rounds >= 1);
//! let r = register.read(1)?; // the register's second reader
//! assert_eq!(r.value.as_u64(), Some(42));
//! store.shutdown();
//! # Ok(())
//! # }
//! ```
//!
//! ## Multi-register stores
//!
//! [`NetStore`] serves a whole namespace of independent registers over
//! one server cluster: every server thread multiplexes per-register
//! state, and client cores are **sharded across worker threads by
//! register** so independent registers proceed concurrently over the
//! shared router. Router statistics are broken down per register and
//! per destination server.
//!
//! ## One worker, two ways to wait
//!
//! Client cores are wrapped in `lucky-core`'s sans-io `ClientSession`
//! (the poll-based op lifecycle with the per-operation deadline built
//! in), and each shard worker multiplexes **all** of its sessions on one
//! thread: it takes jobs and deliveries, wakes due sessions, settles
//! finished ops and begins queued ones. [`NetStoreBuilder::build`]
//! decides per worker how it waits for the next input — there is no
//! option to pick ([`Driver`] has a single value):
//!
//! * **epoll** — under [`Transport::Tcp`], when an epoll instance and a
//!   wake eventfd can be set up (Linux): the worker accepts and reads
//!   its own socket with `lucky-wire`'s push-based `FrameDecoder`, and
//!   sleeps in `epoll_wait` with the sessions' `next_wake` armed on a
//!   timerfd, waking only for IO, a timer, or a submitted job
//!   (signalled via `eventfd`);
//! * **its input channel** — under [`Transport::Channel`], and under TCP
//!   when epoll cannot be set up (counted in [`NetStats::io_errors`]):
//!   the router (or the fabric's reader threads for the worker's slot)
//!   sends every delivery to the channel that also carries the jobs,
//!   and the worker blocks in `recv_timeout` until the earliest session
//!   wake.
//!
//! Either way one thread drives thousands of concurrent in-flight
//! sessions and an idle store burns zero CPU. `tests/driver_equivalence.rs`
//! proves the two waits observably interchangeable, and
//! `tests/reactor.rs` pins the concurrency and idle-CPU properties.
//!
//! ## Futures
//!
//! On top of the ticket API, [`NetRegisterHandle::write_future`] /
//! [`read_future`](NetRegisterHandle::read_future) (and their `async
//! fn` sugar [`write_async`](NetRegisterHandle::write_async) /
//! [`read_async`](NetRegisterHandle::read_async)) return real
//! [`OpFuture`]s: the op is submitted immediately and the shard worker
//! wakes the awaiting task when it settles. Any executor works; the
//! std-only batteries in [`exec`] ([`exec::block_on`],
//! [`exec::Executor`], [`exec::run_all`]) are enough to hold thousands
//! of operations in flight from one caller thread.
//!
//! ## Transports
//!
//! The router moves wire messages over one of two transports (builder
//! method `transport`): [`Transport::Channel`] (default) hands them to
//! in-process inboxes, while [`Transport::Tcp`] gives every server and
//! every shard worker a real `std::net` loopback socket — each wire
//! message is encoded by `lucky-wire`, framed with a checksum, written
//! to the destination slot's socket and reassembled from partial reads
//! on the far side. Under TCP, [`NetStats::wire_bytes`] reports the
//! true framed byte count (strictly above the codec-exact payload
//! accounting in `bytes`), [`NetStats::decode_errors`] counts rejected
//! hostile frames, and `server_addr` exposes each server's listener
//! for adversarial harnesses that talk raw bytes.
//!
//! ## Batching
//!
//! With an enabled `BatchConfig` (builder method `batch`), the router
//! coalesces messages bound for the same destination socket-slot — a
//! server, or the shard worker hosting a group of client cores — into
//! single `Message::Batch` wire messages (up to `max_msgs` parts,
//! waiting at most `max_delay_micros` for co-travellers), and servers
//! re-batch their acks per sender. [`NetStats`] reports the economics:
//! `messages` counts wire messages (a batch once), `parts` the protocol
//! messages carried, `batches_sent`/`msgs_per_batch` the coalescing
//! achieved. Batching is off by default, in which case the wire traffic
//! is identical to the pre-batching runtime.
//!
//! ```
//! use lucky_net::{NetConfig, NetStore};
//! use lucky_types::{Params, RegisterId, Value};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let params = Params::new(1, 0, 1, 0)?;
//! let mut store = NetStore::builder(params, NetConfig::default()).registers(3).build();
//!
//! let h2 = store.register(RegisterId(2))?; // descriptive error if taken/unknown
//! h2.write(Value::from_u64(7))?;
//! assert_eq!(h2.read(0)?.value.as_u64(), Some(7));
//! assert!(store.stats().register(RegisterId(2)).messages > 0);
//! store.check_atomicity()?; // per-register linearizability oracle
//! store.shutdown();
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs, missing_debug_implementations)]

mod cluster;
pub mod exec;
mod future;
mod polled;
mod reactor;
mod router;
mod store;
mod tcp;

pub use cluster::{HandleError, NetConfig, NetError, NetOutcome};
pub use future::OpFuture;
pub use polled::Driver;
pub use router::{GroupStats, NetStats, RegisterStats, ServerStats};
pub use store::{NetRegisterHandle, NetStore, NetStoreBuilder, OpTicket};
pub use tcp::Transport;
