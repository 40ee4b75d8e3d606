//! `ndetect-serve`: a persistent analysis service above the n-detection
//! engine.
//!
//! One-shot `ndet` invocations pay the full artifact pipeline on every
//! call — parse, fault simulation, set generation — softened only by
//! the on-disk store. This crate keeps an analysis process resident:
//! a TCP accept loop ([`server`]) speaks a newline-delimited request
//! protocol ([`protocol`]) and executes requests through a shared
//! [`Engine`] that layers an in-memory hot LRU ([`hot`]) and
//! single-flight deduplication ([`singleflight`]) above the store — a
//! thundering herd of identical requests runs exactly one build, and a
//! warm request touches neither disk nor simulator.
//!
//! The rendering layer ([`render`]) is shared with the CLI: both front
//! ends resolve their circuit argument into one [`Circuit`]
//! (combinational or sequential) and call the same entry point, so a
//! serve reply is byte-for-byte the stdout of the matching one-shot
//! command.
//! Shutdown ([`signal`]) is a drain: in-flight requests finish, new
//! ones get structured `err shutdown` replies, and the process exits 0.

pub mod engine;
pub mod hot;
pub mod protocol;
pub mod render;
pub mod server;
pub mod signal;
pub mod singleflight;

pub use engine::{Counters, Engine};
pub use protocol::{read_reply, ChaosCommand, ErrorReply, Reply, Request};
pub use render::{
    render_corpus, render_corpus_stream, render_gen, render_stats, render_worst, Circuit,
    CorpusOutput, CorpusRequest, CorpusTail, Knobs, StoreProvider, UniverseProvider,
};
pub use server::{Server, ServerConfig, ShutdownHandle};
pub use singleflight::SingleFlight;
