//! What the integration suites share: the oracle harness and the
//! generators that feed it, and the checker of recorded values. Each
//! suite uses only part of it.
#![allow(dead_code)]

pub mod nests;
pub mod oracle;
pub mod pins;
