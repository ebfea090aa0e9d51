//! Legacy installation support (Sect. VIII-A).
//!
//! When IoT Sentinel is installed as a firmware update on a network that
//! already has devices, there is no setup phase to observe: devices are
//! fingerprinted from their standby/operation traffic, all of them start
//! in the untrusted overlay (the legacy WPA2-Personal PSK may already be
//! leaked), and only devices that identify as vulnerability-free *and*
//! support WPS re-keying are moved to the trusted overlay with a fresh
//! device-specific PSK. Devices that cannot re-key either remain in the
//! untrusted overlay (PSK retained) or must be re-introduced manually
//! (PSK deprecated).

use serde::{Deserialize, Serialize};

use sentinel_fingerprint::{extract, FixedFingerprint};
use sentinel_netproto::{MacAddr, Packet};
use sentinel_sdn::{EnforcementModule, EnforcementRule, IsolationLevel};

use crate::identify::AssessKey;
use crate::report::{Identification, ServiceResponse};
use crate::SecurityService;

/// Whether a legacy device supports WiFi Protected Setup re-keying.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum RekeySupport {
    /// The device implements WPS re-keying: it can obtain a fresh
    /// device-specific PSK for the trusted overlay.
    Wps,
    /// No re-keying support (common for old firmware).
    None,
}

/// What to do with the legacy network's shared PSK (Sect. VIII-A lists
/// both options).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum PskPolicy {
    /// Keep the legacy PSK in force: non-rekeyable devices continue to
    /// operate in the untrusted overlay (better user experience, more
    /// exposure).
    Retain,
    /// Deprecate the legacy PSK: non-rekeyable devices drop off the
    /// network and must be re-introduced manually.
    Deprecate,
}

/// Why a migrated device stayed in the untrusted overlay.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum UntrustedReason {
    /// The identified type has known vulnerabilities.
    KnownVulnerabilities,
    /// No classifier accepted the fingerprint.
    UnknownType,
    /// Clean type, but the device cannot perform WPS re-keying and the
    /// legacy PSK was retained.
    NoRekeySupport,
}

/// The migration outcome for one legacy device.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum MigrationOutcome {
    /// Re-keyed via WPS and moved to the trusted overlay.
    MovedToTrusted,
    /// Stays in the untrusted overlay.
    RemainsUntrusted(UntrustedReason),
    /// Dropped off the network (PSK deprecated, no WPS); the user must
    /// re-introduce it through the normal onboarding flow.
    RequiresManualReintroduction,
}

/// A device present in the legacy installation: its MAC, a capture of
/// its standby/operation traffic, and its re-keying capability.
#[derive(Debug, Clone, PartialEq)]
pub struct LegacyDevice {
    /// The device's MAC address.
    pub mac: MacAddr,
    /// Standby/operation packets captured from the device.
    pub packets: Vec<Packet>,
    /// WPS re-keying capability.
    pub rekey: RekeySupport,
}

/// The record of one device's migration.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MigrationRecord {
    /// The migrated device.
    pub mac: MacAddr,
    /// The identification from its standby traffic.
    pub identification: Identification,
    /// Where the device ended up.
    pub outcome: MigrationOutcome,
    /// The isolation level of the installed rule, if a rule remains.
    pub isolation: Option<IsolationLevel>,
}

/// Migrates a legacy installation: identifies every device from standby
/// traffic, installs the appropriate enforcement rules into `module`,
/// and reports per-device outcomes.
///
/// Clean-but-unrekeyable devices under [`PskPolicy::Retain`] are given a
/// *restricted* rule whose endpoint whitelist is the set of remote
/// endpoints observed in their own standby traffic — they keep operating
/// (untrusted overlay + their usual cloud endpoints) without gaining new
/// reach, a conservative rendering of the paper's "continues to operate
/// in the untrusted network".
///
/// Device `i` of `devices` is assessed under the key
/// `AssessKey::new(i, mac)`, so a record depends only on the device and
/// its place in the list.
pub fn migrate<S: SecurityService>(
    service: &S,
    policy: PskPolicy,
    devices: &[LegacyDevice],
    module: &mut EnforcementModule,
) -> Vec<MigrationRecord> {
    devices
        .iter()
        .enumerate()
        .map(|(index, device)| {
            let key = AssessKey::new(index as u64, device.mac);
            migrate_one(service, policy, device, key, module)
        })
        .collect()
}

fn migrate_one<S: SecurityService>(
    service: &S,
    policy: PskPolicy,
    device: &LegacyDevice,
    key: AssessKey,
    module: &mut EnforcementModule,
) -> MigrationRecord {
    let full = extract(&device.packets);
    let fixed = FixedFingerprint::from_fingerprint(&full);
    let response: ServiceResponse = service.assess_keyed(&full, &fixed, key);
    let (outcome, rule) = match response.isolation {
        IsolationLevel::Trusted => match (device.rekey, policy) {
            (RekeySupport::Wps, _) => (
                MigrationOutcome::MovedToTrusted,
                Some(EnforcementRule::trusted(device.mac)),
            ),
            (RekeySupport::None, PskPolicy::Retain) => {
                let observed: Vec<std::net::IpAddr> = observed_remote_endpoints(&device.packets);
                (
                    MigrationOutcome::RemainsUntrusted(UntrustedReason::NoRekeySupport),
                    Some(EnforcementRule::restricted(device.mac, observed)),
                )
            }
            (RekeySupport::None, PskPolicy::Deprecate) => {
                (MigrationOutcome::RequiresManualReintroduction, None)
            }
        },
        IsolationLevel::Restricted => (
            MigrationOutcome::RemainsUntrusted(UntrustedReason::KnownVulnerabilities),
            Some(EnforcementRule::restricted(
                device.mac,
                response.permitted_endpoints.iter().copied(),
            )),
        ),
        IsolationLevel::Strict => (
            MigrationOutcome::RemainsUntrusted(UntrustedReason::UnknownType),
            Some(EnforcementRule::strict(device.mac)),
        ),
    };
    let isolation = rule.as_ref().map(|r| r.level);
    match rule {
        Some(rule) => module.install_rule(rule),
        None => {
            module.remove_rule(device.mac);
        }
    }
    MigrationRecord {
        mac: device.mac,
        identification: response.identification,
        outcome,
        isolation,
    }
}

/// The distinct public (non-RFC1918, non-multicast) IPv4 destinations in
/// a capture, in first-contact order.
fn observed_remote_endpoints(packets: &[Packet]) -> Vec<std::net::IpAddr> {
    let mut seen = Vec::new();
    for packet in packets {
        if let Some(std::net::IpAddr::V4(ip)) = packet.dst_ip() {
            let private = ip.is_private()
                || ip.is_broadcast()
                || ip.is_multicast()
                || ip.is_link_local()
                || ip.is_unspecified();
            let addr = std::net::IpAddr::V4(ip);
            if !private && !seen.contains(&addr) {
                seen.push(addr);
            }
        }
    }
    seen
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::{Outcome, ServiceResponse};
    use sentinel_devicesim::{catalog, Testbed};
    use sentinel_fingerprint::Fingerprint;
    use sentinel_sdn::overlay::Overlay;

    /// Scripted service: identifies everything as the given fixture.
    struct Scripted {
        isolation: IsolationLevel,
    }

    impl SecurityService for Scripted {
        fn assess_keyed(
            &self,
            _f: &Fingerprint,
            _x: &FixedFingerprint,
            _key: AssessKey,
        ) -> ServiceResponse {
            ServiceResponse {
                identification: Identification {
                    outcome: Outcome::Identified {
                        label: 0,
                        name: "Fixture".into(),
                    },
                    candidates: vec![0],
                    discriminated: false,
                    scores: vec![],
                },
                isolation: self.isolation,
                permitted_endpoints: vec![],
                user_notification: None,
            }
        }
    }

    fn legacy_device(rekey: RekeySupport) -> LegacyDevice {
        let devices = catalog();
        let trace = Testbed::new(9).standby_run(&devices[0].profile, 0, 2);
        LegacyDevice {
            mac: trace.mac,
            packets: trace.packets,
            rekey,
        }
    }

    #[test]
    fn clean_wps_device_moves_to_trusted() {
        let mut module = EnforcementModule::new();
        let device = legacy_device(RekeySupport::Wps);
        let records = migrate(
            &Scripted {
                isolation: IsolationLevel::Trusted,
            },
            PskPolicy::Retain,
            std::slice::from_ref(&device),
            &mut module,
        );
        assert_eq!(records[0].outcome, MigrationOutcome::MovedToTrusted);
        assert_eq!(module.overlay_of(device.mac), Overlay::Trusted);
    }

    #[test]
    fn clean_non_wps_device_stays_untrusted_with_observed_endpoints() {
        let mut module = EnforcementModule::new();
        let device = legacy_device(RekeySupport::None);
        let records = migrate(
            &Scripted {
                isolation: IsolationLevel::Trusted,
            },
            PskPolicy::Retain,
            std::slice::from_ref(&device),
            &mut module,
        );
        assert_eq!(
            records[0].outcome,
            MigrationOutcome::RemainsUntrusted(UntrustedReason::NoRekeySupport)
        );
        assert_eq!(module.overlay_of(device.mac), Overlay::Untrusted);
        // Its own cloud endpoints stay reachable.
        let rule = module.cache().get(device.mac).expect("rule installed");
        assert!(
            !rule.permitted_endpoints.is_empty(),
            "standby traffic contains cloud endpoints"
        );
        for endpoint in &rule.permitted_endpoints {
            assert!(rule.permits_remote(*endpoint));
        }
    }

    #[test]
    fn deprecated_psk_drops_non_wps_devices() {
        let mut module = EnforcementModule::new();
        let device = legacy_device(RekeySupport::None);
        let records = migrate(
            &Scripted {
                isolation: IsolationLevel::Trusted,
            },
            PskPolicy::Deprecate,
            std::slice::from_ref(&device),
            &mut module,
        );
        assert_eq!(
            records[0].outcome,
            MigrationOutcome::RequiresManualReintroduction
        );
        assert!(records[0].isolation.is_none());
        assert!(module.cache().get(device.mac).is_none());
    }

    #[test]
    fn vulnerable_device_remains_untrusted_even_with_wps() {
        let mut module = EnforcementModule::new();
        let device = legacy_device(RekeySupport::Wps);
        let records = migrate(
            &Scripted {
                isolation: IsolationLevel::Restricted,
            },
            PskPolicy::Retain,
            std::slice::from_ref(&device),
            &mut module,
        );
        assert_eq!(
            records[0].outcome,
            MigrationOutcome::RemainsUntrusted(UntrustedReason::KnownVulnerabilities)
        );
        assert_eq!(module.overlay_of(device.mac), Overlay::Untrusted);
    }

    #[test]
    fn unknown_device_gets_strict() {
        let mut module = EnforcementModule::new();
        let device = legacy_device(RekeySupport::Wps);
        let records = migrate(
            &Scripted {
                isolation: IsolationLevel::Strict,
            },
            PskPolicy::Retain,
            &[device],
            &mut module,
        );
        assert_eq!(
            records[0].outcome,
            MigrationOutcome::RemainsUntrusted(UntrustedReason::UnknownType)
        );
        assert_eq!(records[0].isolation, Some(IsolationLevel::Strict));
    }

    #[test]
    fn observed_endpoints_are_public_and_deduplicated() {
        let devices = catalog();
        let trace = Testbed::new(10).standby_run(&devices[0].profile, 0, 3);
        let endpoints = observed_remote_endpoints(&trace.packets);
        let distinct: std::collections::HashSet<_> = endpoints.iter().collect();
        assert_eq!(distinct.len(), endpoints.len());
        for endpoint in &endpoints {
            let std::net::IpAddr::V4(v4) = endpoint else {
                panic!("v4 only in this lab")
            };
            assert!(!v4.is_private());
        }
    }
}
