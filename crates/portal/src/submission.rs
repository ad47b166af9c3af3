//! Submission lifecycle: created → validated → scheduled → running →
//! post-processing → complete (or failed).
//!
//! The transitions mirror the paper's §III.A narrative: validation mode
//! runs before any scheduling; replicates complete one by one; after the
//! last one "the system automatically runs some post-processing on the
//! results and makes them available in a single zip file".

use crate::notify::{EventKind, Outbox};
use crate::users::User;
use garli::config::GarliConfig;
use garli::validate::{validate, ValidationReport};
use phylo::alignment::Alignment;

/// Where a submission is in its life.
#[derive(Debug, Clone, PartialEq)]
pub enum SubmissionStatus {
    /// Built from the form, not yet validated.
    Created,
    /// Passed GARLI validation mode.
    Validated,
    /// All replicates handed to the grid.
    Scheduled,
    /// At least one replicate finished, not all.
    Running,
    /// All replicates done, assembling the archive.
    PostProcessing,
    /// Archive ready; final email sent.
    Complete,
    /// Validation or execution failed.
    Failed(String),
}

/// Transition errors.
#[derive(Debug, Clone, PartialEq)]
pub struct StateError {
    /// The state the submission was in.
    pub from: String,
    /// The operation attempted.
    pub operation: &'static str,
}

impl std::fmt::Display for StateError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "cannot {} from state {}", self.operation, self.from)
    }
}

impl std::error::Error for StateError {}

/// One portal submission.
#[derive(Debug, Clone)]
pub struct Submission {
    /// Unique submission id.
    pub id: u64,
    /// Who submitted it.
    pub user: User,
    /// The job configuration.
    pub config: GarliConfig,
    /// The uploaded data.
    pub alignment: Alignment,
    status: SubmissionStatus,
    validation: Option<ValidationReport>,
    completed_replicates: usize,
    last_progress_milestone: u8,
}

impl Submission {
    /// Assemble a fresh submission.
    pub fn new(id: u64, user: User, config: GarliConfig, alignment: Alignment) -> Submission {
        Submission {
            id,
            user,
            config,
            alignment,
            status: SubmissionStatus::Created,
            validation: None,
            completed_replicates: 0,
            last_progress_milestone: 0,
        }
    }

    /// Current status.
    pub fn status(&self) -> &SubmissionStatus {
        &self.status
    }

    /// The validation report, once validated.
    pub fn validation(&self) -> Option<&ValidationReport> {
        self.validation.as_ref()
    }

    /// Replicates finished so far.
    pub fn completed_replicates(&self) -> usize {
        self.completed_replicates
    }

    /// Total replicates in the submission.
    pub fn total_replicates(&self) -> usize {
        self.config.total_replicates()
    }

    fn state_name(&self) -> String {
        format!("{:?}", self.status)
    }

    /// Run GARLI validation mode. On success the user gets an "accepted"
    /// email; on failure the submission is failed with the error text.
    pub fn run_validation(&mut self, outbox: &mut Outbox) -> Result<&ValidationReport, StateError> {
        if self.status != SubmissionStatus::Created {
            return Err(StateError {
                from: self.state_name(),
                operation: "validate",
            });
        }
        match validate(&self.config, &self.alignment) {
            Ok(report) => {
                self.validation = Some(report);
                self.status = SubmissionStatus::Validated;
                outbox.notify(self.user.email(), self.id, EventKind::Accepted);
                Ok(self.validation.as_ref().expect("just set"))
            }
            Err(e) => {
                self.status = SubmissionStatus::Failed(e.to_string());
                outbox.notify(self.user.email(), self.id, EventKind::Failed);
                Err(StateError {
                    from: "Created (validation failed)".into(),
                    operation: "validate",
                })
            }
        }
    }

    /// Mark all replicates dispatched.
    pub fn mark_scheduled(&mut self, outbox: &mut Outbox) -> Result<(), StateError> {
        if self.status != SubmissionStatus::Validated {
            return Err(StateError {
                from: self.state_name(),
                operation: "schedule",
            });
        }
        self.status = SubmissionStatus::Scheduled;
        outbox.notify(self.user.email(), self.id, EventKind::Scheduled);
        Ok(())
    }

    /// Record one finished replicate; emits progress emails at each 25 %
    /// milestone and flips to post-processing when the last one lands.
    pub fn replicate_finished(&mut self, outbox: &mut Outbox) -> Result<(), StateError> {
        match self.status {
            SubmissionStatus::Scheduled | SubmissionStatus::Running => {}
            _ => {
                return Err(StateError {
                    from: self.state_name(),
                    operation: "finish replicate",
                })
            }
        }
        self.completed_replicates += 1;
        self.status = SubmissionStatus::Running;
        let total = self.total_replicates();
        let pct = (self.completed_replicates * 100 / total.max(1)) as u8;
        let milestone = pct / 25 * 25;
        if milestone > self.last_progress_milestone && milestone < 100 {
            self.last_progress_milestone = milestone;
            outbox.notify(self.user.email(), self.id, EventKind::Progress(milestone));
        }
        if self.completed_replicates >= total {
            self.status = SubmissionStatus::PostProcessing;
        }
        Ok(())
    }

    /// Archive assembled: complete, tell the user.
    pub fn mark_complete(&mut self, outbox: &mut Outbox) -> Result<(), StateError> {
        if self.status != SubmissionStatus::PostProcessing {
            return Err(StateError {
                from: self.state_name(),
                operation: "complete",
            });
        }
        self.status = SubmissionStatus::Complete;
        outbox.notify(self.user.email(), self.id, EventKind::Complete);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use phylo::models::nucleotide;
    use phylo::models::SiteRates;
    use phylo::simulate::Simulator;
    use phylo::tree::Tree;

    fn submission(reps: usize) -> Submission {
        let mut rng = simkit::SimRng::new(151);
        let tree = Tree::random_topology(6, &mut rng);
        let model = nucleotide::jc69();
        let aln = Simulator::new(&model, SiteRates::uniform()).simulate(&tree, 150, &mut rng);
        let mut config = GarliConfig::quick_nucleotide();
        config.search_replicates = reps;
        Submission::new(1, User::guest("u@x.org").unwrap(), config, aln)
    }

    #[test]
    fn happy_path() {
        let mut s = submission(4);
        let mut out = Outbox::new();
        s.run_validation(&mut out).unwrap();
        assert_eq!(*s.status(), SubmissionStatus::Validated);
        assert!(s.validation().unwrap().num_patterns > 0);
        s.mark_scheduled(&mut out).unwrap();
        for _ in 0..4 {
            s.replicate_finished(&mut out).unwrap();
        }
        assert_eq!(*s.status(), SubmissionStatus::PostProcessing);
        s.mark_complete(&mut out).unwrap();
        assert_eq!(*s.status(), SubmissionStatus::Complete);
        let kinds: Vec<_> = out.emails().iter().map(|e| e.kind.clone()).collect();
        assert!(kinds.contains(&EventKind::Accepted));
        assert!(kinds.contains(&EventKind::Scheduled));
        assert!(kinds.contains(&EventKind::Complete));
    }

    #[test]
    fn progress_milestones_emitted_once() {
        let mut s = submission(8);
        let mut out = Outbox::new();
        s.run_validation(&mut out).unwrap();
        s.mark_scheduled(&mut out).unwrap();
        for _ in 0..8 {
            s.replicate_finished(&mut out).unwrap();
        }
        let progresses: Vec<u8> = out
            .emails()
            .iter()
            .filter_map(|e| match e.kind {
                EventKind::Progress(p) => Some(p),
                _ => None,
            })
            .collect();
        assert_eq!(progresses, vec![25, 50, 75]);
    }

    #[test]
    fn invalid_transitions_rejected() {
        let mut s = submission(2);
        let mut out = Outbox::new();
        assert!(s.mark_scheduled(&mut out).is_err());
        assert!(s.replicate_finished(&mut out).is_err());
        assert!(s.mark_complete(&mut out).is_err());
        s.run_validation(&mut out).unwrap();
        assert!(
            s.run_validation(&mut out).is_err(),
            "double validation rejected"
        );
    }

    #[test]
    fn validation_failure_fails_submission() {
        let mut s = submission(2);
        s.config.population_size = 0; // invalid
        let mut out = Outbox::new();
        assert!(s.run_validation(&mut out).is_err());
        assert!(matches!(s.status(), SubmissionStatus::Failed(_)));
        assert!(out.emails().iter().any(|e| e.kind == EventKind::Failed));
    }
}
