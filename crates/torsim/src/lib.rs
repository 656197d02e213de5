//! # torsim — a deterministic simulator of the Tor network as seen by
//! measurement relays
//!
//! The paper instruments 16 live Tor relays; this crate substitutes a
//! synthetic Tor network that produces the same *event vocabulary* the
//! PrivCount Tor patch emits, so the measurement stack (`privcount`,
//! `psc`) runs unchanged against either.
//!
//! Two generation modes share the event types:
//!
//! * [`full`] — a small-scale end-to-end simulation: clients select
//!   weighted guards, build circuits through a consensus, open streams,
//!   publish/fetch onion descriptors. Used by tests and examples where
//!   every byte of the pipeline should flow through real path selection.
//!   Generates natively sharded streams ([`full::FullSim::stream_day`])
//!   under the same shard-count-invariance contract as [`stream`].
//! * [`sampled`] — the paper-scale mode: given a configured ground truth
//!   (e.g. 2×10⁹ daily exit streams) and the instrumented relays'
//!   weight fractions, it generates exactly the event sample those
//!   relays would observe, by Poisson/binomial thinning. This is what
//!   lets experiments run at the paper's scale without simulating two
//!   billion events.
//!
//! Substrates: [`relay`] (consensus & weighted selection), [`hashring`]
//! (the HSDir DHT), [`sites`] (synthetic Alexa-like top-1M list),
//! [`geo`]/[`asn`] (synthetic MaxMind/CAIDA-like databases),
//! [`workload`] (paper-calibrated ground truth), [`churn`] (multi-day
//! client IP turnover), [`timeline`] (deterministic per-day network
//! evolution — consensus churn, weight and popularity drift, churned
//! client pools — for longitudinal campaigns), [`events`] (the
//! PrivCount event vocabulary).

pub mod asn;
pub mod churn;
pub mod events;
pub mod full;
pub mod geo;
pub mod hashring;
pub mod ids;
pub mod relay;
pub mod sampled;
pub mod sites;
pub mod stream;
pub mod timeline;
pub mod v3;
pub mod workload;

pub use events::TorEvent;
pub use ids::{AsNumber, ClientId, CountryCode, DomainId, IpAddr, OnionAddr, RelayId};

/// Seconds in a simulated day.
pub const DAY_SECS: u64 = 86_400;

/// Convenience prelude.
pub mod prelude {
    pub use crate::asn::AsDb;
    pub use crate::churn::ChurnModel;
    pub use crate::events::{AddrKind, DescFetchOutcome, PortClass, RendOutcome, TorEvent};
    pub use crate::full::{FullSim, FullSimConfig};
    pub use crate::geo::GeoDb;
    pub use crate::hashring::HsDirRing;
    pub use crate::ids::{AsNumber, ClientId, CountryCode, DomainId, IpAddr, OnionAddr, RelayId};
    pub use crate::relay::{Consensus, Relay, RelayFlags};
    pub use crate::sampled::SampledSim;
    pub use crate::sites::{SiteList, SiteListConfig};
    pub use crate::stream::{EventStream, StreamSim};
    pub use crate::timeline::{DaySnapshot, DistinctTruth, NetworkTimeline, TimelineConfig};
    pub use crate::workload::{ClientTruth, ExitTruth, OnionTruth, Workload};
    pub use crate::DAY_SECS;
}
