//! Shared support for the workspace's integration tests: a switch fleet
//! driven by hand ([`network::Fleet`]) for tests that pin state placement
//! themselves, and the counting network several traffic suites share
//! ([`traffic`]). Tests that only need "a network running policy P" use
//! `snap_distrib::deploy_in_process` + `Controller::update_policy` instead.

pub mod network;
pub mod traffic;
