//! What the differential suites share: the oracle harness and the
//! generators that feed it. Each suite uses only part of it.
#![allow(dead_code)]

pub mod nests;
pub mod oracle;
