//! # dcn-topology — folded-Clos fabric construction
//!
//! Builds the 3-tier folded-Clos topologies of the paper (Figs. 2–3),
//! generalized over PoD count, spines per PoD, ToRs per PoD, uplinks per
//! spine and servers per ToR, plus an optional zone layer that makes a
//! fourth tier (§IX). The builder fixes three conventions that the rest
//! of the reproduction depends on:
//!
//! 1. **Wiring order = port numbering.** Links are emitted so that every
//!    router's *up-facing* ports come first, giving the 1-based port labels
//!    MR-MTP appends during VID derivation. With the paper's 2-PoD
//!    topology this reproduces Fig. 2 exactly: S1_1 acquires `11.1` via
//!    ToR 11's port 1, S2_1 acquires `11.1.1` via S1_1's port 1, S2_3
//!    acquires `11.1.2` via S1_1's port 2.
//! 2. **Strided plane wiring.** PoD spine *j* uplinks to top spines
//!    `{j, j+S, j+2S, …}` (S = spines per PoD), so S1_1 connects to
//!    S2_1/S2_3 and S1_2 to S2_2/S2_4 as in Fig. 2; a zone layer is wired
//!    to the top tier the same way.
//! 3. **Addressing per the paper.** Rack subnets `192.168.V.0/24` with the
//!    third octet `V = 11 + global ToR index` (the MR-MTP VID source),
//!    `/24` point-to-point router subnets under `172.16.0.0/16`
//!    (Listing 3), and the RFC 7938 ASN plan of Listing 1 (top spines
//!    64512, PoD-p spines 64513+p, per-ToR ASNs from 65001).
//!
//! The crate also renders the two configuration artifacts the paper
//! compares in §VII-G: per-router FRR-style BGP configuration (Listing 1)
//! and the single MR-MTP JSON file (Listing 2).

#![forbid(unsafe_code)]

pub mod addressing;
pub mod clos;
pub mod config;

pub use addressing::{Addressing, RouterLinkAddr};
pub use clos::{ClosParams, Fabric, FailureCase, NodeSpec, PortKind, PortRef, Role, Zones};
pub use config::{bgp_router_config, mrmtp_fabric_config, ConfigStats};
