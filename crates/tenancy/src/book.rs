//! The tenant book: accounts, admission, fair-share release, and credit.
//!
//! [`TenantBook`] is the single mutable structure the grid consults at its
//! three tenancy touch points:
//!
//! 1. **Submission** — [`TenantBook::submit`] runs admission control and
//!    either parks the job in the tenant's queue or rejects it with a typed
//!    reason. Rejected jobs never become grid state.
//! 2. **Scheduling tick** — [`TenantBook::release`] moves up to `budget`
//!    jobs from tenant queues into the grid's pending backlog, picking
//!    tenants by weighted fair share (smallest decayed `usage / weight`
//!    first) with a starvation-free aging boost.
//! 3. **Result** — [`TenantBook::on_terminal`] charges the actual CPU time
//!    to the owner, replaces the release-time estimate, and grants
//!    BOINC-style credit when the result validated.
//!
//! # Scaling to millions of tenants
//!
//! All hot-path operations are O(log n): the book keeps two derived
//! `BTreeSet` indexes over *eligible* tenants (non-empty queue and
//! in-flight below quota) — a priority index keyed by the scaled usage
//! ratio (see [`crate::fairshare`] for why that key is time-invariant) and
//! an aging index keyed by each tenant's oldest queued submission instant.
//! Both are rebuilt from the accounts on snapshot restore and never
//! serialized, following the repo's derived-state rule.
//!
//! # Determinism
//!
//! The book consumes no randomness and never schedules events. Ties in
//! both indexes break on tenant id, f64 keys compare via `total_cmp`, and
//! iteration orders are `BTreeSet`/[`IdMap`] ascending — a seeded scenario
//! replays the same admission and release sequence exactly.

use crate::account::{Quota, TenantId, TenantSpec};
use crate::admission::{AdmissionOutcome, QueueReason, RejectReason};
use crate::fairshare::{jain_index, scale_at, unscale_at, BOOST_AFTER, URGENT_WINDOW};
use serde::{Deserialize, Serialize, Value};
use simkit::{IdMap, SimDuration, SimTime};
use std::collections::{BTreeSet, VecDeque};

/// The tenancy layer's on-switch, carried by `GridConfig::tenancy`
/// (default `None` = single-tenant legacy path). It has no settings:
/// tenants join through `register`, fair share runs on the constants in
/// [`crate::fairshare`], and the release throttle and credit scale are
/// [`BACKLOG_FACTOR`] and [`CREDIT_PER_CPU_HOUR`].
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct TenancyConfig {}

/// Release throttle: each scheduling tick refills the grid's pending
/// backlog up to `ceil(total_slots × 2.0)` jobs. Keeping the backlog
/// shallow keeps arbitration in the fair-share loop (where weights apply)
/// instead of the grid's FIFO.
pub const BACKLOG_FACTOR: f64 = 2.0;

/// Credit granted per validated CPU-hour (BOINC's cobblestone scale).
pub const CREDIT_PER_CPU_HOUR: f64 = 100.0;

/// A submission parked in a tenant's queue, waiting for fair-share release.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
struct QueuedJob {
    /// Grid job id.
    job: u64,
    /// Estimated CPU-seconds (reference), used as the release-time usage
    /// estimate until the real charge arrives.
    cost: f64,
    /// When the job entered the queue (drives the aging boost).
    submitted: SimTime,
}

/// Job-id → owner mapping for released (in-flight) jobs.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
struct OwnerEntry {
    /// Owning tenant.
    tenant: u64,
    /// The scaled usage estimate added at release, reversed at terminal.
    scaled_est: f64,
}

/// One tenant's ledger.
#[derive(Debug, Clone, Serialize, Deserialize)]
struct Account {
    spec: TenantSpec,
    /// Resolved quota (spec quota or class default; mutable via
    /// `set_quota`).
    quota: Quota,
    /// Decay-scaled usage: real charges plus in-flight estimates, each
    /// multiplied by `2^(t/half_life)` at charge time.
    scaled_usage: f64,
    /// Jobs released and not yet terminal.
    in_flight: u64,
    /// High-water mark of `in_flight` (E18 asserts it never exceeds quota).
    peak_in_flight: u64,
    queue: VecDeque<QueuedJob>,
    submitted: u64,
    rejected: u64,
    released: u64,
    completed: u64,
    dead_lettered: u64,
    /// Actual CPU-seconds charged (useful and wasted alike).
    cpu_seconds: f64,
    /// Credit granted for validated results.
    credit: f64,
    // ---- derived index handles (never serialized; `TenantBook`'s
    // restore re-indexes every account) ----
    #[serde(skip)]
    idx_priority: Option<f64>,
    #[serde(skip)]
    idx_aging: Option<SimTime>,
    #[serde(skip)]
    idx_urgent: Option<SimTime>,
}

impl Account {
    fn new(spec: TenantSpec) -> Account {
        let quota = spec.effective_quota();
        Account {
            spec,
            quota,
            scaled_usage: 0.0,
            in_flight: 0,
            peak_in_flight: 0,
            queue: VecDeque::new(),
            submitted: 0,
            rejected: 0,
            released: 0,
            completed: 0,
            dead_lettered: 0,
            cpu_seconds: 0.0,
            credit: 0.0,
            idx_priority: None,
            idx_aging: None,
            idx_urgent: None,
        }
    }

    /// The fair-share ordering key: decay-scaled usage normalized by both
    /// the operator-set weight and the submitter-set campaign priority.
    fn share_key(&self) -> f64 {
        self.scaled_usage / (self.spec.weight * self.spec.priority)
    }
}

/// Rejection counters by typed reason (labels match
/// [`RejectReason::label`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct RejectCounts {
    /// Submissions for a tenant id that was never registered.
    pub unknown_tenant: u64,
    /// Submissions by tenants whose quota allows zero in-flight work.
    pub zero_quota: u64,
    /// Submissions bounced off a full admission queue.
    pub queue_full: u64,
    /// Submissions refused because the CPU-hour budget is spent.
    pub cpu_budget: u64,
}

impl RejectCounts {
    /// Total rejections across all reasons.
    pub fn total(&self) -> u64 {
        self.unknown_tenant + self.zero_quota + self.queue_full + self.cpu_budget
    }

    fn record(&mut self, reason: &RejectReason) {
        match reason {
            RejectReason::UnknownTenant => self.unknown_tenant += 1,
            RejectReason::ZeroQuota => self.zero_quota += 1,
            RejectReason::QueueFull { .. } => self.queue_full += 1,
            RejectReason::CpuBudgetExhausted { .. } => self.cpu_budget += 1,
        }
    }
}

/// A job handed from a tenant queue to the grid's pending backlog.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReleasedJob {
    /// Grid job id.
    pub job: u64,
    /// Owning tenant.
    pub tenant: TenantId,
    /// Time spent in the admission queue.
    pub waited: SimDuration,
}

/// One status-page row (see [`TenancySnapshot::top`]).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TenantRow {
    /// Tenant id.
    pub id: u64,
    /// Display name.
    pub name: String,
    /// `"guest"` or `"registered"`.
    pub class: String,
    /// Fair-share weight.
    pub weight: f64,
    /// Jobs in flight right now.
    pub in_flight: u64,
    /// Jobs waiting in the admission queue.
    pub queued: u64,
    /// CPU-hours charged so far.
    pub cpu_hours: f64,
    /// Credit granted so far.
    pub credit: f64,
}

/// Aggregated tenancy state for reports, telemetry, and the portal status
/// page. `top` is bounded (top-K by charged CPU) with `more` recording how
/// many tenants were truncated, so rendering is never O(tenants) in output.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TenancySnapshot {
    /// Registered tenants.
    pub tenants: u64,
    /// Jobs in flight across all tenants.
    pub in_flight: u64,
    /// Jobs parked in admission queues.
    pub queued: u64,
    /// Total submissions attempted.
    pub submitted: u64,
    /// Total rejections.
    pub rejected: u64,
    /// Jobs released into the grid.
    pub released: u64,
    /// Jobs completed with a validated (credited) result.
    pub completed: u64,
    /// Jobs that ended dead-lettered or uncredited.
    pub dead_lettered: u64,
    /// Rejections by typed reason.
    pub rejections: RejectCounts,
    /// CPU-hours charged across all tenants.
    pub cpu_hours: f64,
    /// Credit granted across all tenants.
    pub credit: f64,
    /// Jain fairness index over weight-normalized CPU shares of tenants
    /// that consumed any CPU (1.0 = perfectly weighted-fair).
    pub jain_weighted: f64,
    /// Top tenants by charged CPU (then name, then id), at most the
    /// `max_rows` passed to [`TenantBook::snapshot`].
    pub top: Vec<TenantRow>,
    /// Tenants beyond `top` ("… and N more").
    pub more: u64,
}

/// f64 index key with a total order (`total_cmp`); ties in the index break
/// on the tenant id that follows it in the tuple.
#[derive(Debug, Clone, Copy, PartialEq)]
struct OrdF64(f64);

impl Eq for OrdF64 {}

impl PartialOrd for OrdF64 {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for OrdF64 {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.0.total_cmp(&other.0)
    }
}

/// The multi-tenant ledger. See the module docs for the three touch points
/// and the scaling/determinism story.
///
/// Snapshot form: accounts and owners as id-sorted pairs via `IdMap`,
/// queues as plain sequences. The derived indexes are skipped and the
/// hand-written `Deserialize` rebuilds them, so snapshot → restore →
/// snapshot is byte-stable.
#[derive(Debug, Clone, Default, Serialize)]
pub struct TenantBook {
    next_tenant: u64,
    accounts: IdMap<Account>,
    /// Owner mapping for in-flight jobs only (queued jobs are reachable
    /// through their tenant's queue).
    owners: IdMap<OwnerEntry>,
    rejections: RejectCounts,
    total_submitted: u64,
    total_released: u64,
    total_completed: u64,
    total_dead_lettered: u64,
    total_in_flight: u64,
    total_queued: u64,
    total_cpu_seconds: f64,
    total_credit: f64,
    // ---- derived (rebuilt on restore, never serialized) ----
    /// Eligible tenants by (scaled usage / (weight × priority), id) —
    /// smallest first.
    #[serde(skip)]
    priority: BTreeSet<(OrdF64, u64)>,
    /// Eligible tenants by (oldest queued submission, id) — oldest first.
    #[serde(skip)]
    aging: BTreeSet<(SimTime, u64)>,
    /// Eligible tenants that carry a campaign deadline, by (deadline, id)
    /// — earliest first. Consulted only inside the urgent window.
    #[serde(skip)]
    urgent: BTreeSet<(SimTime, u64)>,
}

impl TenantBook {
    /// Open an account. Ids are assigned in registration order and never
    /// reused.
    ///
    /// # Panics
    /// Panics on a non-positive or non-finite fair-share weight or
    /// campaign priority.
    pub fn register(&mut self, spec: TenantSpec) -> TenantId {
        assert!(
            spec.weight.is_finite() && spec.weight > 0.0,
            "tenant {:?} has invalid fair-share weight {}",
            spec.name,
            spec.weight
        );
        assert!(
            spec.priority.is_finite() && spec.priority > 0.0,
            "tenant {:?} has invalid campaign priority {}",
            spec.name,
            spec.priority
        );
        let id = self.next_tenant;
        self.next_tenant += 1;
        self.accounts.insert(id, Account::new(spec));
        TenantId(id)
    }

    /// Number of registered tenants.
    pub fn len(&self) -> usize {
        self.accounts.len()
    }

    /// True iff no tenants are registered.
    pub fn is_empty(&self) -> bool {
        self.accounts.is_empty()
    }

    /// Total rejected submissions (these never became grid jobs).
    pub fn rejected_total(&self) -> u64 {
        self.rejections.total()
    }

    /// Jobs currently parked in admission queues.
    pub fn queued_total(&self) -> u64 {
        self.total_queued
    }

    /// Jobs currently in flight across all tenants.
    pub fn in_flight_total(&self) -> u64 {
        self.total_in_flight
    }

    /// The tenant's fair-share weight, if registered.
    pub fn weight_of(&self, tenant: TenantId) -> Option<f64> {
        self.accounts.get(tenant.0).map(|a| a.spec.weight)
    }

    /// The tenant's effective quota, if registered.
    pub fn quota_of(&self, tenant: TenantId) -> Option<Quota> {
        self.accounts.get(tenant.0).map(|a| a.quota)
    }

    /// The tenant's decayed CPU-usage (seconds) as of `now`, estimates
    /// included — the quantity fair-share actually compares (divided by
    /// weight).
    pub fn decayed_usage(&self, tenant: TenantId, now: SimTime) -> Option<f64> {
        self.accounts
            .get(tenant.0)
            .map(|a| unscale_at(a.scaled_usage, now))
    }

    /// The tenant's charged CPU-seconds and granted credit.
    pub fn usage_of(&self, tenant: TenantId) -> Option<(f64, f64)> {
        self.accounts
            .get(tenant.0)
            .map(|a| (a.cpu_seconds, a.credit))
    }

    /// The tenant's current in-flight count and all-time peak.
    pub fn in_flight_of(&self, tenant: TenantId) -> Option<(u64, u64)> {
        self.accounts
            .get(tenant.0)
            .map(|a| (a.in_flight, a.peak_in_flight))
    }

    /// Replace the tenant's quota. Shrinking below the current in-flight
    /// count never preempts running work — releases simply stop until
    /// completions bring the tenant back under the new cap.
    pub fn set_quota(&mut self, tenant: TenantId, quota: Quota) -> bool {
        if let Some(acct) = self.accounts.get_mut(tenant.0) {
            acct.quota = quota;
            self.reindex(tenant.0);
            true
        } else {
            false
        }
    }

    /// Admission control for one submission. Accepted jobs are parked in
    /// the tenant's queue (released later by [`Self::release`]); rejected
    /// jobs must not enter the grid at all.
    pub fn submit(
        &mut self,
        tenant: TenantId,
        job: u64,
        cost_estimate_seconds: f64,
        now: SimTime,
    ) -> AdmissionOutcome {
        self.total_submitted += 1;
        let Some(acct) = self.accounts.get_mut(tenant.0) else {
            let reason = RejectReason::UnknownTenant;
            self.rejections.record(&reason);
            return AdmissionOutcome::Rejected { reason };
        };
        acct.submitted += 1;
        let reject = if acct.quota.max_in_flight == 0 {
            Some(RejectReason::ZeroQuota)
        } else if let Some(limit_hours) = acct.quota.max_cpu_hours {
            let used_hours = acct.cpu_seconds / 3600.0;
            if used_hours >= limit_hours {
                Some(RejectReason::CpuBudgetExhausted {
                    limit_hours,
                    used_hours,
                })
            } else if acct.queue.len() as u64 >= acct.quota.max_queued {
                Some(RejectReason::QueueFull {
                    limit: acct.quota.max_queued,
                })
            } else {
                None
            }
        } else if acct.queue.len() as u64 >= acct.quota.max_queued {
            Some(RejectReason::QueueFull {
                limit: acct.quota.max_queued,
            })
        } else {
            None
        };
        if let Some(reason) = reject {
            acct.rejected += 1;
            self.rejections.record(&reason);
            return AdmissionOutcome::Rejected { reason };
        }
        acct.queue.push_back(QueuedJob {
            job,
            cost: cost_estimate_seconds.max(0.0),
            submitted: now,
        });
        let depth = acct.queue.len() as u64;
        let outcome = if acct.in_flight.saturating_add(depth) <= acct.quota.max_in_flight {
            AdmissionOutcome::Admitted
        } else if acct.in_flight >= acct.quota.max_in_flight {
            AdmissionOutcome::Queued {
                reason: QueueReason::InFlightQuotaReached,
            }
        } else {
            AdmissionOutcome::Queued {
                reason: QueueReason::BehindOlderWork,
            }
        };
        self.total_queued += 1;
        // A push_back changes neither the priority key (scaled usage) nor
        // the queue head unless the queue was empty, so only the
        // empty→non-empty transition can change the index entries.
        if depth == 1 {
            self.reindex(tenant.0);
        }
        outcome
    }

    /// Release up to `budget` jobs from tenant queues, in fair-share order.
    ///
    /// Selection per slot: if the globally oldest queued head has waited at
    /// least `boost_after`, its tenant is served (starvation guard); else
    /// if a tenant's campaign deadline falls inside `urgent_window`, the
    /// earliest-deadline tenant is served (EDF phase); otherwise the
    /// eligible tenant with the smallest
    /// `scaled_usage / (weight × priority)` is served. Each release
    /// charges the job's cost estimate to the tenant so a burst cannot
    /// over-release between completions; [`Self::on_terminal`] later swaps
    /// the estimate for the real charge.
    pub fn release(&mut self, now: SimTime, budget: usize) -> Vec<ReleasedJob> {
        let mut out = Vec::with_capacity(budget.min(self.total_queued as usize));
        let mut remaining = budget;
        // Starvation phase: serve boosted tenants one slot at a time with
        // the indexes kept current. Within one call `now` is fixed and
        // popping only makes queue heads *newer*, so once the oldest head
        // falls under `boost_after` the boost stays inactive for the rest
        // of the call — the phases cannot interleave.
        while remaining > 0 {
            let boosted = self
                .aging
                .iter()
                .next()
                .filter(|(head, _)| now.saturating_since(*head) >= BOOST_AFTER)
                .map(|&(_, id)| id);
            let Some(tid) = boosted else {
                break;
            };
            self.release_one(tid, now, &mut out);
            self.reindex(tid);
            remaining -= 1;
        }
        // EDF phase: deadlines inside the urgent window drain earliest
        // first. A deadline never moves and `now` is fixed within a call,
        // so a tenant stays urgent until its queue empties or its quota
        // fills — urgent campaigns drain completely before share order
        // gets a slot.
        while remaining > 0 {
            let horizon = now + URGENT_WINDOW;
            let due = self
                .urgent
                .iter()
                .next()
                .filter(|(deadline, _)| *deadline <= horizon)
                .map(|&(_, id)| id);
            let Some(tid) = due else {
                break;
            };
            self.release_one(tid, now, &mut out);
            self.reindex(tid);
            remaining -= 1;
        }
        // Fair-share phase. Serving the minimum tenant slot-by-slot would
        // pay two BTreeSet remove/insert pairs per released job; instead a
        // tenant's index entries are dropped once and consecutive slots go
        // to it while its charged key stays ahead of the runner-up `fence`
        // (the exact condition under which the slot-by-slot loop would
        // re-pick it), then one reindex closes the run. The released
        // sequence is identical; only the index traffic shrinks.
        while remaining > 0 {
            let Some(&(_, tid)) = self.priority.iter().next() else {
                break;
            };
            {
                let acct = self.accounts.get_mut(tid).expect("indexed tenant exists");
                if let Some(k) = acct.idx_priority.take() {
                    self.priority.remove(&(OrdF64(k), tid));
                }
                if let Some(t) = acct.idx_aging.take() {
                    self.aging.remove(&(t, tid));
                }
                if let Some(t) = acct.idx_urgent.take() {
                    self.urgent.remove(&(t, tid));
                }
            }
            let fence = self.priority.iter().next().copied();
            loop {
                self.release_one(tid, now, &mut out);
                remaining -= 1;
                if remaining == 0 {
                    break;
                }
                let acct = self.accounts.get(tid).expect("indexed tenant exists");
                if acct.queue.is_empty() || acct.in_flight >= acct.quota.max_in_flight {
                    break;
                }
                let key = OrdF64(acct.share_key());
                if fence.is_some_and(|f| (key, tid) >= f) {
                    break;
                }
            }
            self.reindex(tid);
        }
        out
    }

    /// Serve one slot to `tid`: pop its queue head, charge the release
    /// estimate, and record the in-flight owner. The caller is responsible
    /// for reindexing afterwards.
    fn release_one(&mut self, tid: u64, now: SimTime, out: &mut Vec<ReleasedJob>) {
        let scale = scale_at(now);
        let acct = self.accounts.get_mut(tid).expect("indexed tenant exists");
        let qj = acct.queue.pop_front().expect("indexed tenant has work");
        let scaled_est = qj.cost * scale;
        acct.scaled_usage += scaled_est;
        acct.in_flight += 1;
        acct.peak_in_flight = acct.peak_in_flight.max(acct.in_flight);
        acct.released += 1;
        self.owners.insert(
            qj.job,
            OwnerEntry {
                tenant: tid,
                scaled_est,
            },
        );
        self.total_queued -= 1;
        self.total_in_flight += 1;
        self.total_released += 1;
        out.push(ReleasedJob {
            job: qj.job,
            tenant: TenantId(tid),
            waited: now.saturating_since(qj.submitted),
        });
    }

    /// Settle a terminal outcome for a released job: reverse the release
    /// estimate, charge the actual CPU-seconds, and grant credit when
    /// `credited` (validated result). Returns the owner and the credit
    /// granted, or `None` when the job was not tenant-owned (plain
    /// single-tenant submissions coexist untouched).
    pub fn on_terminal(
        &mut self,
        job: u64,
        cpu_seconds: f64,
        credited: bool,
        now: SimTime,
    ) -> Option<(TenantId, f64)> {
        let entry = self.owners.remove(job)?;
        let scale = scale_at(now);
        let acct = self
            .accounts
            .get_mut(entry.tenant)
            .expect("owner references registered tenant");
        acct.scaled_usage = (acct.scaled_usage - entry.scaled_est).max(0.0);
        acct.scaled_usage += cpu_seconds.max(0.0) * scale;
        acct.in_flight -= 1;
        acct.cpu_seconds += cpu_seconds.max(0.0);
        let credit = if credited {
            let c = cpu_seconds.max(0.0) / 3600.0 * CREDIT_PER_CPU_HOUR;
            acct.credit += c;
            acct.completed += 1;
            c
        } else {
            acct.dead_lettered += 1;
            0.0
        };
        self.total_in_flight -= 1;
        self.total_cpu_seconds += cpu_seconds.max(0.0);
        if credited {
            self.total_completed += 1;
            self.total_credit += credit;
        } else {
            self.total_dead_lettered += 1;
        }
        self.reindex(entry.tenant);
        Some((TenantId(entry.tenant), credit))
    }

    /// Aggregate state for reports and the portal, with at most `max_rows`
    /// per-tenant rows (top by charged CPU, then name, then id).
    pub fn snapshot(&self, max_rows: usize) -> TenancySnapshot {
        let mut ranked: Vec<(u64, &Account)> = self.accounts.iter().collect();
        ranked.sort_by(|(aid, a), (bid, b)| {
            b.cpu_seconds
                .total_cmp(&a.cpu_seconds)
                .then_with(|| a.spec.name.cmp(&b.spec.name))
                .then_with(|| aid.cmp(bid))
        });
        let shares: Vec<f64> = ranked
            .iter()
            .filter(|(_, a)| a.cpu_seconds > 0.0)
            .map(|(_, a)| a.cpu_seconds / a.spec.weight)
            .collect();
        let top: Vec<TenantRow> = ranked
            .iter()
            .take(max_rows)
            .map(|(id, a)| TenantRow {
                id: *id,
                name: a.spec.name.clone(),
                class: a.spec.class.label().to_string(),
                weight: a.spec.weight,
                in_flight: a.in_flight,
                queued: a.queue.len() as u64,
                cpu_hours: a.cpu_seconds / 3600.0,
                credit: a.credit,
            })
            .collect();
        TenancySnapshot {
            tenants: self.accounts.len() as u64,
            in_flight: self.total_in_flight,
            queued: self.total_queued,
            submitted: self.total_submitted,
            rejected: self.rejections.total(),
            released: self.total_released,
            completed: self.total_completed,
            dead_lettered: self.total_dead_lettered,
            rejections: self.rejections,
            cpu_hours: self.total_cpu_seconds / 3600.0,
            credit: self.total_credit,
            jain_weighted: jain_index(&shares),
            more: (ranked.len().saturating_sub(top.len())) as u64,
            top,
        }
    }

    /// Re-derive the tenant's membership in both indexes after any
    /// mutation of its queue, in-flight count, usage, or quota.
    fn reindex(&mut self, tid: u64) {
        let (old_pri, old_age, old_due, fresh) = {
            let Some(acct) = self.accounts.get_mut(tid) else {
                return;
            };
            let old_pri = acct.idx_priority.take();
            let old_age = acct.idx_aging.take();
            let old_due = acct.idx_urgent.take();
            let eligible = !acct.queue.is_empty() && acct.in_flight < acct.quota.max_in_flight;
            let fresh = if eligible {
                let key = acct.share_key();
                let head = acct
                    .queue
                    .front()
                    .expect("eligible tenant has queued work")
                    .submitted;
                let due = acct.spec.deadline;
                acct.idx_priority = Some(key);
                acct.idx_aging = Some(head);
                acct.idx_urgent = due;
                Some((key, head, due))
            } else {
                None
            };
            (old_pri, old_age, old_due, fresh)
        };
        if let Some(k) = old_pri {
            self.priority.remove(&(OrdF64(k), tid));
        }
        if let Some(t) = old_age {
            self.aging.remove(&(t, tid));
        }
        if let Some(t) = old_due {
            self.urgent.remove(&(t, tid));
        }
        if let Some((key, head, due)) = fresh {
            self.priority.insert((OrdF64(key), tid));
            self.aging.insert((head, tid));
            if let Some(t) = due {
                self.urgent.insert((t, tid));
            }
        }
    }

    /// Rebuild the derived indexes from scratch (after snapshot restore).
    fn rebuild_indexes(&mut self) {
        self.priority.clear();
        self.aging.clear();
        self.urgent.clear();
        let ids: Vec<u64> = self.accounts.iter().map(|(id, _)| id).collect();
        for id in ids {
            self.reindex(id);
        }
    }
}

// Hand-written so restore can rebuild the skipped fair-share indexes.
impl Deserialize for TenantBook {
    fn from_value(value: &Value) -> Result<Self, serde::Error> {
        let fields = match value {
            Value::Map(fields) => fields,
            _ => return Err(serde::Error::custom("TenantBook: expected map")),
        };
        let mut book = TenantBook {
            next_tenant: serde::field(fields, "next_tenant")?,
            accounts: serde::field(fields, "accounts")?,
            owners: serde::field(fields, "owners")?,
            rejections: serde::field(fields, "rejections")?,
            total_submitted: serde::field(fields, "total_submitted")?,
            total_released: serde::field(fields, "total_released")?,
            total_completed: serde::field(fields, "total_completed")?,
            total_dead_lettered: serde::field(fields, "total_dead_lettered")?,
            total_in_flight: serde::field(fields, "total_in_flight")?,
            total_queued: serde::field(fields, "total_queued")?,
            total_cpu_seconds: serde::field(fields, "total_cpu_seconds")?,
            total_credit: serde::field(fields, "total_credit")?,
            priority: BTreeSet::new(),
            aging: BTreeSet::new(),
            urgent: BTreeSet::new(),
        };
        book.rebuild_indexes();
        Ok(book)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn book_with(specs: Vec<TenantSpec>) -> TenantBook {
        let mut book = TenantBook::default();
        for spec in specs {
            book.register(spec);
        }
        book
    }

    fn unlimited(name: &str, weight: f64) -> TenantSpec {
        TenantSpec::registered(name, weight).with_quota(Quota::unlimited())
    }

    #[test]
    fn weighted_release_converges_to_share() {
        // Two tenants, weights 1 and 2, each with a deep queue of equal
        // 100-second jobs. Interleave release + immediate completion and
        // count how the slots split.
        let mut book = book_with(vec![unlimited("w1", 1.0), unlimited("w2", 2.0)]);
        let (a, b) = (TenantId(0), TenantId(1));
        let t0 = SimTime::ZERO;
        for j in 0..300u64 {
            let tenant = if j % 2 == 0 { a } else { b };
            assert!(book.submit(tenant, j, 100.0, t0).accepted());
        }
        let mut counts = [0u64; 2];
        for step in 0..150u64 {
            let now = SimTime::from_secs(step);
            let released = book.release(now, 1);
            assert_eq!(released.len(), 1);
            let r = released[0];
            counts[r.tenant.0 as usize] += 1;
            // Complete immediately: the charge equals the estimate.
            book.on_terminal(r.job, 100.0, true, now);
        }
        // Weight-2 tenant should get ~2/3 of the slots.
        let share = counts[1] as f64 / 150.0;
        assert!((share - 2.0 / 3.0).abs() < 0.05, "share = {share}");
    }

    #[test]
    fn deadline_urgent_campaign_drains_ahead_of_equal_share_peers() {
        // Three equal-weight, equal-usage tenants; two carry deadlines
        // inside the 24 h urgent window. EDF order: the 6 h campaign
        // drains completely, then the 20 h one, and only then does the
        // deadline-free peer get a slot.
        let mut book = book_with(vec![
            unlimited("steady", 1.0),
            unlimited("due-20h", 1.0).with_deadline(SimTime::from_hours(20)),
            unlimited("due-6h", 1.0).with_deadline(SimTime::from_hours(6)),
        ]);
        let t0 = SimTime::ZERO;
        for j in 0..4u64 {
            assert!(book.submit(TenantId(0), j, 100.0, t0).accepted());
            assert!(book.submit(TenantId(1), 10 + j, 100.0, t0).accepted());
            assert!(book.submit(TenantId(2), 20 + j, 100.0, t0).accepted());
        }
        let order: Vec<u64> = book
            .release(t0, 12)
            .into_iter()
            .map(|r| r.tenant.0)
            .collect();
        assert_eq!(order, vec![2, 2, 2, 2, 1, 1, 1, 1, 0, 0, 0, 0]);
    }

    #[test]
    fn far_future_deadline_exerts_no_pressure() {
        // A deadline outside the urgent window changes nothing: with equal
        // shares the id tie-break picks tenant 0, deadline or not.
        let mut book = book_with(vec![
            unlimited("steady", 1.0),
            unlimited("due-next-month", 1.0).with_deadline(SimTime::from_days(30)),
        ]);
        let t0 = SimTime::ZERO;
        assert!(book.submit(TenantId(0), 0, 100.0, t0).accepted());
        assert!(book.submit(TenantId(1), 1, 100.0, t0).accepted());
        let first = book.release(t0, 1);
        assert_eq!(first[0].tenant, TenantId(0));
        // Re-ask once the deadline is inside the window: now EDF wins.
        let later = SimTime::from_days(29) + SimDuration::from_hours(12);
        assert_eq!(book.release(later, 1)[0].tenant, TenantId(1));
    }

    #[test]
    fn campaign_priority_scales_share_like_weight() {
        // Same shape as `weighted_release_converges_to_share`, but the 2×
        // share comes from the submitter-set campaign priority instead of
        // the operator-set weight.
        let mut book = book_with(vec![
            unlimited("p1", 1.0),
            unlimited("p2", 1.0).with_priority(2.0),
        ]);
        let (a, b) = (TenantId(0), TenantId(1));
        let t0 = SimTime::ZERO;
        for j in 0..300u64 {
            let tenant = if j % 2 == 0 { a } else { b };
            assert!(book.submit(tenant, j, 100.0, t0).accepted());
        }
        let mut counts = [0u64; 2];
        for step in 0..150u64 {
            let now = SimTime::from_secs(step);
            let r = book.release(now, 1)[0];
            counts[r.tenant.0 as usize] += 1;
            book.on_terminal(r.job, 100.0, true, now);
        }
        let share = counts[1] as f64 / 150.0;
        assert!((share - 2.0 / 3.0).abs() < 0.05, "share = {share}");
    }

    #[test]
    #[should_panic(expected = "invalid campaign priority")]
    fn non_positive_priority_is_refused_at_registration() {
        book_with(vec![unlimited("bad", 1.0).with_priority(0.0)]);
    }

    #[test]
    fn in_flight_quota_is_a_hard_cap() {
        let spec = TenantSpec::registered("capped", 1.0).with_quota(Quota {
            max_in_flight: 3,
            max_queued: 100,
            max_cpu_hours: None,
        });
        let mut book = book_with(vec![spec]);
        let t = TenantId(0);
        for j in 0..10u64 {
            assert!(book.submit(t, j, 10.0, SimTime::ZERO).accepted());
        }
        // A huge budget still releases only up to the cap.
        let released = book.release(SimTime::from_secs(1), 1000);
        assert_eq!(released.len(), 3);
        assert_eq!(book.in_flight_of(t), Some((3, 3)));
        // Nothing more until a completion frees a slot.
        assert!(book.release(SimTime::from_secs(2), 1000).is_empty());
        book.on_terminal(released[0].job, 10.0, true, SimTime::from_secs(3));
        let next = book.release(SimTime::from_secs(4), 1000);
        assert_eq!(next.len(), 1);
        assert_eq!(book.in_flight_of(t), Some((3, 3)));
    }

    #[test]
    fn zero_quota_rejects_and_queue_full_rejects() {
        let zero = TenantSpec::registered("zero", 1.0).with_quota(Quota {
            max_in_flight: 0,
            max_queued: 100,
            max_cpu_hours: None,
        });
        let tiny_queue = TenantSpec::registered("tiny", 1.0).with_quota(Quota {
            max_in_flight: 1,
            max_queued: 2,
            max_cpu_hours: None,
        });
        let mut book = book_with(vec![zero, tiny_queue]);
        assert_eq!(
            book.submit(TenantId(0), 0, 1.0, SimTime::ZERO),
            AdmissionOutcome::Rejected {
                reason: RejectReason::ZeroQuota
            }
        );
        assert!(book.submit(TenantId(1), 1, 1.0, SimTime::ZERO).accepted());
        assert!(book.submit(TenantId(1), 2, 1.0, SimTime::ZERO).accepted());
        assert_eq!(
            book.submit(TenantId(1), 3, 1.0, SimTime::ZERO),
            AdmissionOutcome::Rejected {
                reason: RejectReason::QueueFull { limit: 2 }
            }
        );
        assert_eq!(
            book.submit(TenantId(7), 4, 1.0, SimTime::ZERO),
            AdmissionOutcome::Rejected {
                reason: RejectReason::UnknownTenant
            }
        );
        assert_eq!(book.rejected_total(), 3);
        assert_eq!(book.snapshot(10).rejections.zero_quota, 1);
        assert_eq!(book.snapshot(10).rejections.queue_full, 1);
        assert_eq!(book.snapshot(10).rejections.unknown_tenant, 1);
    }

    #[test]
    fn cpu_budget_rejects_after_spend() {
        let spec = TenantSpec::guest("g@x.org").with_quota(Quota {
            max_in_flight: 10,
            max_queued: 10,
            max_cpu_hours: Some(1.0),
        });
        let mut book = book_with(vec![spec]);
        let t = TenantId(0);
        assert!(book.submit(t, 0, 3600.0, SimTime::ZERO).accepted());
        let r = book.release(SimTime::ZERO, 1);
        // Burn exactly the budget.
        book.on_terminal(r[0].job, 3600.0, true, SimTime::from_secs(3600));
        let outcome = book.submit(t, 1, 10.0, SimTime::from_secs(3700));
        assert!(matches!(
            outcome,
            AdmissionOutcome::Rejected {
                reason: RejectReason::CpuBudgetExhausted { .. }
            }
        ));
    }

    #[test]
    fn starvation_boost_serves_oldest_head() {
        // Tenant "hog" has tiny usage, tenant "starved" has huge usage —
        // fair share alone would serve hog forever. Once starved's head
        // job has waited past boost_after, it must be served.
        let mut book = book_with(vec![unlimited("hog", 1.0), unlimited("starved", 1.0)]);
        let (hog, starved) = (TenantId(0), TenantId(1));
        let t0 = SimTime::ZERO;
        book.submit(starved, 0, 1.0, t0);
        // Give starved a mountain of usage so priority never picks it.
        let r = book.release(t0, 1);
        book.on_terminal(r[0].job, 1.0e6, true, t0);
        book.submit(starved, 1, 1.0, t0);
        // Hog's work arrives later, so starved owns the oldest queued head.
        for j in 2..200u64 {
            book.submit(hog, j, 1.0, SimTime::from_secs(60));
        }
        // Before the boost window: hog wins.
        let early = book.release(SimTime::from_hours(1), 1);
        assert_eq!(early[0].tenant, hog);
        // After boost_after (12h default), starved's head is served first.
        let late = book.release(SimTime::from_hours(13), 1);
        assert_eq!(late[0].tenant, starved, "aging boost must fire");
    }

    #[test]
    fn quota_shrink_pauses_releases_without_preemption() {
        let mut book = book_with(vec![unlimited("t", 1.0)]);
        let t = TenantId(0);
        for j in 0..6u64 {
            book.submit(t, j, 1.0, SimTime::ZERO);
        }
        let released = book.release(SimTime::ZERO, 4);
        assert_eq!(released.len(), 4);
        // Shrink below current in-flight: nothing is preempted...
        book.set_quota(
            t,
            Quota {
                max_in_flight: 2,
                max_queued: 10,
                max_cpu_hours: None,
            },
        );
        assert_eq!(book.in_flight_of(t), Some((4, 4)));
        // ...and no further release happens until in-flight < 2.
        assert!(book.release(SimTime::from_secs(1), 10).is_empty());
        for job in released.iter().take(3) {
            book.on_terminal(job.job, 1.0, true, SimTime::from_secs(2));
        }
        assert_eq!(book.release(SimTime::from_secs(3), 10).len(), 1);
    }

    #[test]
    fn credit_granted_only_when_credited() {
        let mut book = book_with(vec![unlimited("t", 1.0)]);
        let t = TenantId(0);
        book.submit(t, 0, 3600.0, SimTime::ZERO);
        book.submit(t, 1, 3600.0, SimTime::ZERO);
        let r = book.release(SimTime::ZERO, 2);
        let (_, c0) = book
            .on_terminal(r[0].job, 3600.0, true, SimTime::from_hours(1))
            .unwrap();
        let (_, c1) = book
            .on_terminal(r[1].job, 3600.0, false, SimTime::from_hours(1))
            .unwrap();
        assert!((c0 - 100.0).abs() < 1e-9, "one CPU-hour = 100 credit");
        assert_eq!(c1, 0.0, "uncredited results charge usage but grant none");
        let (cpu, credit) = book.usage_of(t).unwrap();
        assert!((cpu - 7200.0).abs() < 1e-9);
        assert!((credit - 100.0).abs() < 1e-9);
        let snap = book.snapshot(10);
        assert_eq!(snap.completed, 1);
        assert_eq!(snap.dead_lettered, 1);
    }

    #[test]
    fn non_tenant_jobs_pass_through_terminal() {
        let mut book = book_with(vec![unlimited("t", 1.0)]);
        assert_eq!(book.on_terminal(999, 100.0, true, SimTime::ZERO), None);
    }

    #[test]
    fn snapshot_rows_are_bounded_and_deterministic() {
        let mut book = book_with(vec![]);
        for i in 0..20u64 {
            let t = book.register(unlimited(&format!("t{i:02}"), 1.0));
            book.submit(t, i, 100.0, SimTime::ZERO);
        }
        let r = book.release(SimTime::ZERO, 20);
        for (k, job) in r.iter().enumerate() {
            book.on_terminal(
                job.job,
                (k as f64 + 1.0) * 10.0,
                true,
                SimTime::from_secs(1),
            );
        }
        let snap = book.snapshot(5);
        assert_eq!(snap.top.len(), 5);
        assert_eq!(snap.more, 15);
        // Ranked by CPU descending.
        for w in snap.top.windows(2) {
            assert!(w[0].cpu_hours >= w[1].cpu_hours);
        }
        assert_eq!(snap, book.snapshot(5), "snapshot must be deterministic");
    }

    #[test]
    fn serde_round_trip_rebuilds_indexes() {
        let mut book = book_with(vec![unlimited("a", 1.0), unlimited("b", 2.0)]);
        for j in 0..50u64 {
            book.submit(TenantId(j % 2), j, 50.0, SimTime::from_secs(j));
        }
        let r = book.release(SimTime::from_secs(60), 10);
        for job in r.iter().take(4) {
            book.on_terminal(job.job, 50.0, true, SimTime::from_secs(70));
        }
        let bytes = serde_json::to_string(&book).unwrap();
        let mut restored: TenantBook = serde_json::from_str(&bytes).unwrap();
        assert_eq!(
            serde_json::to_string(&restored).unwrap(),
            bytes,
            "snapshot -> restore -> snapshot must be byte-stable"
        );
        // The restored book must release in exactly the same order.
        let mut original = book.clone();
        let a = original.release(SimTime::from_secs(100), 8);
        let b = restored.release(SimTime::from_secs(100), 8);
        assert_eq!(a, b, "derived indexes must rebuild identically");
    }
}
