//! # dcn-mrmtp — the Multi-Root Meshed Tree Protocol
//!
//! This crate is the reproduction's implementation of the paper's primary
//! contribution. MR-MTP is a single layer-3 protocol that, in a
//! folded-Clos DCN, replaces the entire BGP/ECMP/BFD/TCP/UDP/IP stack for
//! fabric-internal routing:
//!
//! * **Meshed trees from auto-assigned VIDs.** Every ToR roots a tree
//!   identified by its VID (derived from the rack subnet's third octet).
//!   Upper-tier spines join the trees of the tier below and receive VIDs
//!   formed by appending the join port's number — `11.1.1` both names a
//!   top spine's position in ToR 11's tree and spells out the loop-free
//!   path back to that ToR. Trees from different ToRs *mesh* at the
//!   spines, giving every ToR-pair multiple disjoint paths with no routing
//!   protocol, no spine addressing, and no per-prefix configuration.
//! * **Forwarding by VID table.** Encapsulated IP packets carry source and
//!   destination ToR VIDs. A router owning a VID rooted at the destination
//!   forwards *down* its port of acquisition; otherwise it hashes the flow
//!   *up* across live uplinks. Negative-reachability entries installed by
//!   loss updates steer flows away from broken subtrees.
//! * **Quick-to-Detect, Slow-to-Accept.** A neighbor is declared down
//!   after a single missed hello (dead interval = 2 × the 50 ms hello
//!   interval) but re-accepted only after three consecutive hellos, which
//!   dampens flapping interfaces. Every MR-MTP frame doubles as a
//!   keep-alive; explicit hellos (one byte on the wire) are sent only on
//!   otherwise-idle links.
//! * **Reliability built in.** Offers and loss/recovery updates carry
//!   sequence numbers and are retransmitted until acknowledged — the
//!   function TCP performs for BGP, at a tiny fraction of the bytes.
//!
//! The implementation follows the paper's §III–§IV description; timer
//! defaults (50 ms hello, 100 ms dead, 3-hello acceptance) are the values
//! used in the paper's evaluation.

#![forbid(unsafe_code)]

pub mod config;
pub mod fib;
pub mod neighbor;
pub mod reliable;
pub mod router;
pub mod vid_table;

pub use config::{MrmtpConfig, MrmtpTimers, TorConfig};
pub use fib::CompiledFib;
pub use neighbor::{NeighborState, NeighborTable};
pub use router::{MrmtpRouter, RouterStats};
pub use vid_table::{OwnVid, VidTable};
