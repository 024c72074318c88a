//! # dct-machine
//!
//! A cycle-approximate simulator of a cache-coherent NUMA multiprocessor in
//! the mold of the Stanford DASH prototype: per-processor two-level
//! direct-mapped caches with 16-byte lines, a directory-based invalidation
//! protocol, first-touch page placement, and the 1 : 10 : 30 : 100–130
//! latency ratios the paper reports. It models timing and coherence events
//! only; program data lives in the SPMD interpreter.

#![allow(clippy::needless_range_loop, clippy::manual_memcpy)]

pub mod cache;
pub mod classify;
pub mod config;
pub mod probe;
pub mod system;

pub use cache::{Cache, LineState};
pub use classify::{Classifier, FastHash, MissClasses, ShadowLru};
pub use config::MachineConfig;
pub use probe::{AccessLevel, MemProbe};
pub use system::{Machine, ProcStats, SegAccess, Stats, SyncOp, SyncStats, MAX_SEG_SLOTS};
