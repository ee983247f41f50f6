//! # dcn-bgp — eBGP with ECMP for folded-Clos DCNs (the paper's baseline)
//!
//! An implementation of BGP as deployed in data centers per RFC 7938 and
//! the paper's FRRouting configuration (Listing 1):
//!
//! * eBGP sessions over [`dcn_tcp`] on every fabric link, one per
//!   neighbor, with the paper's `timers bgp 1 3` (1 s keepalive, 3 s hold);
//! * per-tier ASN plan (top spines 64512, PoD spines 64513+p, per-ToR
//!   ASNs) giving AS-path-based loop prevention and automatic valley-free
//!   routing;
//! * shortest-AS-path selection with **multipath** (`maximum-paths`):
//!   equal-length paths form an ECMP set, and the data plane hashes flows
//!   across members;
//! * UPDATE generation with batched withdrawn-routes and NLRI sections,
//!   byte-accurate per `dcn-wire`, driving the paper's Fig. 6
//!   control-overhead comparison;
//! * optional [`dcn_bfd`] supervision per session (the paper's
//!   BGP/ECMP/BFD stack): a BFD `SessionDown` tears the BGP session
//!   exactly like a hold-timer expiry, but in 300 ms instead of 3 s;
//! * immediate session teardown on local carrier loss (FRR's interface
//!   tracking) — the failure-visibility asymmetry at the heart of the
//!   paper's TC1–TC4 analysis.
//!
//! Omissions relative to a full BGP-4 stack, none of which affect the
//! reproduced metrics: communities/MED/local-pref (single-metric decision
//! in a DCN), route reflection and iBGP (RFC 7938 uses eBGP only), and
//! graceful restart.

#![forbid(unsafe_code)]

pub mod config;
pub mod fib;
mod inline;
pub mod rib;
pub mod router;

pub use config::{BgpConfig, PeerConfig};
pub use fib::CompiledFib;
pub use rib::{PathEntry, Rib};
pub use router::{BgpRouter, BgpStats, CONNECT_RETRY, HOLD_TIME, KEEPALIVE_INTERVAL};
