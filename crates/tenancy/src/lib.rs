//! `tenancy` — the multi-tenant submission layer for the simulated grid.
//!
//! The paper's web portal (§III.A) let guests and registered users submit
//! GARLI analyses to a shared BOINC pool. One lab's 2000-replicate
//! bootstrap campaign must not starve a guest's single tree search, and a
//! flash crowd of guests must not melt the feeder. This crate models the
//! server-side machinery that makes a shared submission point safe:
//!
//! * **accounts and quotas** ([`TenantSpec`], [`Quota`]): guest and
//!   registered tiers with per-tenant in-flight, queue-depth, and
//!   CPU-hour limits;
//! * **typed admission control** ([`AdmissionOutcome`]): over-quota
//!   submissions queue or bounce with a reason the portal can render, and
//!   rejected work never becomes grid state;
//! * **deterministic fair-share scheduling** ([`TenantBook::release`]):
//!   exponentially decayed per-tenant usage (a time-invariant scaled form
//!   keeps tenant selection O(log n); the decay and aging constants live
//!   in [`fairshare`]), share weights, and a starvation-free aging boost;
//! * **BOINC-style credit** ([`TenantBook::on_terminal`]): CPU time is
//!   charged at result time and credit granted only for validated
//!   results, on the cobblestone-like scale of [`CREDIT_PER_CPU_HOUR`];
//! * **heavy-traffic arrivals** ([`ArrivalGenerator`]): a seeded
//!   non-homogeneous Poisson stream with diurnal swings, flash crowds,
//!   and power-law user attribution, sized for millions of simulated
//!   accounts.
//!
//! The crate knows nothing about grids or calendars: `gridsim` consults a
//! [`TenantBook`] at submission, at each scheduling tick, and at each
//! terminal result. Nothing here consumes randomness (the arrival
//! generator owns its own seeded stream), so a single-tenant grid with
//! tenancy disabled is byte-identical to one built before this crate
//! existed.

#![warn(missing_docs)]

mod account;
mod admission;
mod arrivals;
mod book;
pub mod fairshare;

pub use account::{Quota, TenantClass, TenantId, TenantSpec};
pub use admission::{AdmissionOutcome, QueueReason, RejectReason};
pub use arrivals::{ArrivalConfig, ArrivalGenerator, Submission, Submitter};
pub use book::{RejectCounts, ReleasedJob, TenancyConfig, TenancySnapshot, TenantBook, TenantRow};
pub use book::{BACKLOG_FACTOR, CREDIT_PER_CPU_HOUR};
pub use fairshare::jain_index;
