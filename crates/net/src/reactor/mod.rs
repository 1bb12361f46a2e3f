//! icg-net's I/O engine: a dependency-free `epoll` reactor.
//!
//! Every socket in this crate — replica listeners, peer links, client
//! connections of both bindings — is served by a small number of
//! event-loop threads, each owning an `epoll` instance and a set of
//! connections outright. Thread-per-connection I/O would be a wall at
//! production connection counts (10k clients would mean 20k threads on
//! each replica); here the connection count costs memory, not threads.
//!
//! - `sys` — the raw `epoll`/`eventfd` syscalls (hand-declared FFI;
//!   the workspace builds offline, so no `libc` crate) behind safe
//!   `Poller`/`WakeFd` wrappers.
//! - `conn` — the per-connection state machine: an edge-triggered
//!   drain-to-`WouldBlock` read path whose buffer the `Wire` codec
//!   decodes from zero-copy, and a capped write queue flushed with
//!   vectored writes. Its frame extractor is the crate's one frame
//!   decoder (re-exported as [`crate::frame::extract_frame`]).
//! - `event_loop` — the loop itself: readiness dispatch, a
//!   cross-thread command `Injector`, and the `Handler` trait protocols
//!   implement to live on a loop.
//! - [`backoff`] — bounded exponential backoff with deterministic
//!   jitter for the dialer threads that feed loops reconnections.
//! - `server` / [`client`] — the `ReplicaServer` loops and the
//!   `TcpBinding` loops. The spec-store client
//!   ([`crate::TcpSpecBinding`]) implements its own `Handler` and runs
//!   one loop per binding.

pub mod backoff;
pub mod client;
pub(crate) mod conn;
pub(crate) mod event_loop;
pub(crate) mod server;
pub(crate) mod sys;

pub use backoff::{Backoff, Sleeper, ThreadSleeper};
pub use client::ClientReactor;
pub use event_loop::DEFAULT_WRITE_CAP;
