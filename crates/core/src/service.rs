//! The IoT Security Service (IoTSSP, Sect. III-B).
//!
//! The service receives device fingerprints from Security Gateways,
//! identifies the device-type with the two-stage pipeline, assesses its
//! vulnerability and returns the isolation level (plus the endpoint
//! whitelist for restricted devices). It stores nothing about its
//! clients.

use sentinel_fingerprint::{Fingerprint, FixedFingerprint};

use crate::identify::{AssessKey, ClassifyScratch};
use crate::report::{Identification, Outcome, ServiceResponse};
use crate::vulndb::{StaticVulnDb, VulnerabilityDatabase};
use crate::{FingerprintDataset, Identifier, IdentifierConfig};

/// Reusable working memory for [`SecurityService::assess_keyed_batch_into`].
///
/// Wraps the identifier's [`ClassifyScratch`] plus the intermediate
/// identification buffer, so a caller that keeps one `AssessScratch` per
/// worker (the streaming runtime holds one per shard) assesses batch
/// after batch without rebuilding any per-tick state. Scratch carries no
/// state between calls; reuse cannot change any response.
#[derive(Debug, Default)]
pub struct AssessScratch {
    /// Stage-1/stage-2 working memory for the identifier.
    classify: ClassifyScratch,
    /// Identifications of the current batch, drained into responses.
    identifications: Vec<Identification>,
}

/// Anything a [`crate::SecurityGateway`] can consult about a new device.
///
/// The paper's gateways reach the IoTSSP over the network (optionally
/// via Tor); in-process implementations stand in for that RPC.
///
/// Every assessment is keyed by an [`AssessKey`]: the response must be
/// a pure function of `(trained state, fingerprints, key)` —
/// independent of call order, interleaving, or which thread serves it.
/// This is what lets a sharded streaming runtime assess completions
/// concurrently and still produce bit-identical output at every thread
/// count.
pub trait SecurityService {
    /// Identifies one fingerprint and returns the enforcement decision.
    fn assess_keyed(
        &self,
        full: &Fingerprint,
        fixed: &FixedFingerprint,
        key: AssessKey,
    ) -> ServiceResponse;

    /// Keyed batch assessment: **appends** one response per item to
    /// `out` (the shared batch-entry contract — the caller owns and
    /// clears `out`), each exactly [`SecurityService::assess_keyed`]
    /// with that item's key. Because every item carries its own key,
    /// the batch boundary carries no information — splitting a batch
    /// across shards must not change any response. Implementations draw
    /// all per-batch working memory from `scratch`; the default
    /// delegates per item and ignores it.
    fn assess_keyed_batch_into(
        &self,
        items: &[(&Fingerprint, &FixedFingerprint, AssessKey)],
        scratch: &mut AssessScratch,
        out: &mut Vec<ServiceResponse>,
    ) {
        let _ = scratch;
        out.extend(
            items
                .iter()
                .map(|&(full, fixed, key)| self.assess_keyed(full, fixed, key)),
        );
    }
}

/// One trained service can back several gateways (or a gateway and a
/// streaming runtime) at once by handing each a shared reference.
impl<S: SecurityService + ?Sized> SecurityService for &S {
    fn assess_keyed(
        &self,
        full: &Fingerprint,
        fixed: &FixedFingerprint,
        key: AssessKey,
    ) -> ServiceResponse {
        (**self).assess_keyed(full, fixed, key)
    }

    fn assess_keyed_batch_into(
        &self,
        items: &[(&Fingerprint, &FixedFingerprint, AssessKey)],
        scratch: &mut AssessScratch,
        out: &mut Vec<ServiceResponse>,
    ) {
        (**self).assess_keyed_batch_into(items, scratch, out)
    }
}

/// Configuration of an [`IoTSecurityService`].
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ServiceConfig {
    /// Identification-pipeline parameters.
    pub identifier: IdentifierConfig,
}

/// The reference IoTSSP implementation: trained identifier + offline
/// vulnerability database.
#[derive(Debug)]
pub struct IoTSecurityService {
    identifier: Identifier,
    vulndb: StaticVulnDb,
}

impl IoTSecurityService {
    /// Trains the service on a labeled fingerprint corpus, using the
    /// built-in advisory seed data.
    pub fn train(dataset: &FingerprintDataset, config: &ServiceConfig) -> Self {
        Self::train_with_vulndb(dataset, config, StaticVulnDb::with_known_iot_advisories())
    }

    /// Wraps an already-trained identifier (e.g. one rebuilt from a
    /// [`crate::TrainedModel`]) with the built-in advisory database.
    pub fn from_identifier(identifier: crate::Identifier) -> Self {
        Self::from_parts(identifier, StaticVulnDb::with_known_iot_advisories())
    }

    /// Assembles a service from an already-trained identifier and an
    /// explicit vulnerability database — the restore path binary model
    /// persistence uses, where both halves come off disk.
    pub fn from_parts(identifier: crate::Identifier, vulndb: StaticVulnDb) -> Self {
        IoTSecurityService { identifier, vulndb }
    }

    /// Trains the service with an explicit vulnerability database.
    pub fn train_with_vulndb(
        dataset: &FingerprintDataset,
        config: &ServiceConfig,
        vulndb: StaticVulnDb,
    ) -> Self {
        IoTSecurityService {
            identifier: Identifier::train(dataset, &config.identifier),
            vulndb,
        }
    }

    /// The identification pipeline (exposed for evaluation harnesses).
    pub fn identifier(&self) -> &Identifier {
        &self.identifier
    }

    /// Teaches the service one additional device-type without retraining
    /// the existing classifiers (the paper's incremental-onboarding
    /// property). Returns the new type's label.
    ///
    /// `dataset` must be the extended corpus: all previously known types
    /// plus fingerprints labeled with the new type's index. Delegates to
    /// [`Identifier::add_type`], which appends the new classifier, its
    /// stage-2 reference fingerprints and the packed prediction arena;
    /// everything already trained is left bit-identical.
    pub fn add_type(&mut self, name: impl Into<String>, dataset: &FingerprintDataset) -> usize {
        self.identifier.add_type(name, dataset)
    }

    /// Turns the identifier's content-addressed stage-1 verdict cache
    /// on or off (see [`Identifier::enable_verdict_cache`] — byte-
    /// transparent, off by default).
    pub fn enable_verdict_cache(&mut self, enabled: bool) {
        self.identifier.enable_verdict_cache(enabled);
    }

    /// `(hits, lookups)` of the verdict cache since it was enabled —
    /// `(0, 0)` when disabled. Scheduling-dependent under concurrency;
    /// observability only, never part of a deterministic report.
    pub fn verdict_cache_stats(&self) -> (u64, u64) {
        self.identifier.verdict_cache_stats()
    }

    /// The vulnerability database.
    pub fn vulndb(&self) -> &StaticVulnDb {
        &self.vulndb
    }

    /// Turns a finished identification into the enforcement decision
    /// (vulnerability lookup, isolation level, endpoint whitelist).
    fn respond(&self, identification: crate::report::Identification) -> ServiceResponse {
        let type_name = match &identification.outcome {
            Outcome::Identified { name, .. } => Some(name.clone()),
            Outcome::Unknown => None,
        };
        let isolation = self.vulndb.assess(type_name.as_deref());
        let permitted_endpoints = type_name
            .as_deref()
            .map(|name| self.vulndb.vendor_endpoints(name).to_vec())
            .filter(|_| isolation == sentinel_sdn::IsolationLevel::Restricted)
            .unwrap_or_default();
        let user_notification = self.vulndb.removal_notice(type_name.as_deref());
        ServiceResponse {
            identification,
            isolation,
            permitted_endpoints,
            user_notification,
        }
    }
}

impl SecurityService for IoTSecurityService {
    fn assess_keyed(
        &self,
        full: &Fingerprint,
        fixed: &FixedFingerprint,
        key: AssessKey,
    ) -> ServiceResponse {
        self.respond(self.identifier.identify_keyed(full, fixed, key))
    }

    /// The scratch-backed batch: stage 1 walks each packed arena over
    /// the scratch's batch matrix, stage 2 draws from each item's own
    /// keyed generator through the scratch's wavefront band buffers —
    /// zero per-tick allocations once the scratch is warm, responses
    /// bit-identical to per-item [`Self::assess_keyed`] calls at any
    /// batch split.
    fn assess_keyed_batch_into(
        &self,
        items: &[(&Fingerprint, &FixedFingerprint, AssessKey)],
        scratch: &mut AssessScratch,
        out: &mut Vec<ServiceResponse>,
    ) {
        scratch.identifications.clear();
        self.identifier.identify_keyed_batch_into(
            items,
            &mut scratch.classify,
            &mut scratch.identifications,
        );
        out.extend(
            scratch
                .identifications
                .drain(..)
                .map(|identification| self.respond(identification)),
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::BankConfig;
    use sentinel_devicesim::{catalog, Testbed};
    use sentinel_fingerprint::extract;
    use sentinel_ml::ForestConfig;
    use sentinel_netproto::MacAddr;
    use sentinel_sdn::IsolationLevel;

    /// The key of the single-probe tests.
    const KEY: AssessKey = AssessKey {
        seq: 0,
        mac: MacAddr::ZERO,
    };

    fn fast_service(n_devices: usize) -> IoTSecurityService {
        let devices: Vec<_> = catalog().into_iter().take(n_devices).collect();
        let dataset = FingerprintDataset::collect(&devices, 8, 5);
        let config = ServiceConfig {
            identifier: IdentifierConfig {
                bank: BankConfig {
                    forest: ForestConfig::default().with_trees(25),
                    ..BankConfig::default()
                },
                ..IdentifierConfig::default()
            },
        };
        IoTSecurityService::train(&dataset, &config)
    }

    fn fingerprints_of(device_index: usize, run: u64) -> (Fingerprint, FixedFingerprint) {
        let devices = catalog();
        let trace = Testbed::new(31).setup_run(&devices[device_index].profile, run);
        let full = extract(&trace.packets);
        let fixed = FixedFingerprint::from_fingerprint(&full);
        (full, fixed)
    }

    #[test]
    fn clean_device_gets_trusted() {
        // Device 0 (Aria) has no advisisories in the seed database.
        let service = fast_service(3);
        let (full, fixed) = fingerprints_of(0, 0);
        let response = service.assess_keyed(&full, &fixed, KEY);
        assert_eq!(response.isolation, IsolationLevel::Trusted);
        assert!(response.permitted_endpoints.is_empty());
    }

    #[test]
    fn unknown_device_gets_strict() {
        use sentinel_devicesim::{DeviceProfile, Phase, RawDest};
        let service = fast_service(3);
        // An out-of-distribution device no classifier should accept.
        let mut odd = DeviceProfile::new("OddBall", [9, 9, 9]);
        odd.extend_phases([
            Phase::UdpRaw {
                dest: RawDest::Broadcast,
                port: 7777,
                sizes: vec![700, 11, 700],
            },
            Phase::Ping { count: 3 },
        ]);
        let trace = Testbed::new(2).setup_run(&odd, 0);
        let full = extract(&trace.packets);
        let fixed = FixedFingerprint::from_fingerprint(&full);
        let response = service.assess_keyed(&full, &fixed, KEY);
        assert_eq!(response.identification.outcome, Outcome::Unknown);
        assert_eq!(response.isolation, IsolationLevel::Strict);
    }

    #[test]
    fn keyed_batch_is_bit_identical_to_per_item_assess() {
        // Responses from split batches through one reused scratch must
        // equal per-item calls, including isolation decisions and
        // whitelists.
        let service = fast_service(3);
        let probes: Vec<(Fingerprint, FixedFingerprint)> = (0..3)
            .flat_map(|device| (0..3).map(move |run| fingerprints_of(device, run)))
            .collect();
        let items: Vec<(&Fingerprint, &FixedFingerprint, AssessKey)> = probes
            .iter()
            .enumerate()
            .map(|(i, (full, fixed))| (full, fixed, AssessKey::new(i as u64, MacAddr::ZERO)))
            .collect();
        let one_by_one: Vec<ServiceResponse> = items
            .iter()
            .map(|&(full, fixed, key)| service.assess_keyed(full, fixed, key))
            .collect();
        let mut scratch = AssessScratch::default();
        let mut batched = Vec::new();
        service.assess_keyed_batch_into(&items[..4], &mut scratch, &mut batched);
        service.assess_keyed_batch_into(&items[4..], &mut scratch, &mut batched);
        assert_eq!(one_by_one, batched);
    }

    #[test]
    fn add_type_onboards_a_new_device_type() {
        let devices: Vec<_> = catalog().into_iter().take(4).collect();
        let three = FingerprintDataset::collect(&devices[..3], 8, 5);
        let four = FingerprintDataset::collect(&devices, 8, 5);
        let config = ServiceConfig {
            identifier: IdentifierConfig {
                bank: BankConfig {
                    forest: ForestConfig::default().with_trees(25),
                    ..BankConfig::default()
                },
                ..IdentifierConfig::default()
            },
        };
        let mut service = IoTSecurityService::train(&three, &config);
        let (full, fixed) = fingerprints_of(3, 0);
        assert_eq!(
            service
                .assess_keyed(&full, &fixed, KEY)
                .identification
                .outcome,
            Outcome::Unknown,
            "the fourth device must be unknown before onboarding"
        );
        let label = service.add_type(devices[3].info.identifier, &four);
        assert_eq!(label, 3);
        // After incremental onboarding the device identifies, and its
        // classifier is bit-identical to a full retrain's (the extended
        // service shares the full retrain's state for the new label).
        assert_eq!(
            service
                .assess_keyed(&full, &fixed, KEY)
                .identification
                .label(),
            Some(3)
        );
        let retrained = IoTSecurityService::train(&four, &config);
        assert_eq!(
            service.identifier().bank().classifier(label),
            retrained.identifier().bank().classifier(label)
        );
    }

    #[test]
    fn vulnerable_device_gets_restricted_with_whitelist() {
        // Train on 9 devices so EdimaxCam (index 8) is known.
        let service = fast_service(9);
        let (full, fixed) = fingerprints_of(8, 1);
        let response = service.assess_keyed(&full, &fixed, KEY);
        assert_eq!(
            response.identification.label(),
            Some(8),
            "EdimaxCam must be identified: {:?}",
            response.identification
        );
        assert_eq!(response.isolation, IsolationLevel::Restricted);
        assert!(!response.permitted_endpoints.is_empty());
    }
}
