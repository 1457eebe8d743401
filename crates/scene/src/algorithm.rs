//! The ATM rate-control algorithms a scene (or topology file) may name.

use phantom_atm::allocator::RateAllocator;
use phantom_baselines::{Aprc, Capc, Eprca, Erica, Osu};
use phantom_core::{MacrConfig, PhantomAllocator, PhantomConfig, PhantomNi, ResidualMode};

/// The ATM rate-control algorithms under comparison.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AtmAlgorithm {
    /// Phantom, explicit-rate mode (the paper's default).
    Phantom,
    /// Phantom with fixed (non-adaptive) gains — the Fig. 12 ablation.
    PhantomFixedAlpha,
    /// Phantom measuring departures instead of arrivals — ablation.
    PhantomDepartures,
    /// Phantom, binary NI/CI mode (Fig. 11).
    PhantomNi,
    /// EPRCA \[Rob94\].
    Eprca,
    /// APRC \[ST94\].
    Aprc,
    /// CAPC \[Bar94\].
    Capc,
    /// ERICA \[JKV94\] — the unbounded-space (per-VC state) comparator.
    Erica,
    /// OSU \[JKV94\] — basic load-factor scaling, constant space.
    Osu,
}

impl AtmAlgorithm {
    /// Every algorithm with the name a scene gives it. Scene validation,
    /// topology files, [`AtmAlgorithm::name`] and
    /// [`AtmAlgorithm::from_name`] all read this one table.
    pub const ALL: [(AtmAlgorithm, &'static str); 9] = [
        (AtmAlgorithm::Phantom, "phantom"),
        (AtmAlgorithm::PhantomFixedAlpha, "phantom-fixed-alpha"),
        (AtmAlgorithm::PhantomDepartures, "phantom-departures"),
        (AtmAlgorithm::PhantomNi, "phantom-ni"),
        (AtmAlgorithm::Eprca, "eprca"),
        (AtmAlgorithm::Aprc, "aprc"),
        (AtmAlgorithm::Capc, "capc"),
        (AtmAlgorithm::Erica, "erica"),
        (AtmAlgorithm::Osu, "osu"),
    ];

    /// Instantiate one per-port allocator.
    pub fn boxed(self) -> Box<dyn RateAllocator> {
        match self {
            AtmAlgorithm::Phantom => Box::new(PhantomAllocator::paper()),
            AtmAlgorithm::PhantomFixedAlpha => Box::new(PhantomAllocator::new(
                PhantomConfig::paper().with_macr(MacrConfig::default().fixed_gains()),
            )),
            AtmAlgorithm::PhantomDepartures => {
                let macr = MacrConfig {
                    residual: ResidualMode::Departures,
                    ..MacrConfig::default()
                };
                Box::new(PhantomAllocator::new(
                    PhantomConfig::paper().with_macr(macr),
                ))
            }
            AtmAlgorithm::PhantomNi => Box::new(PhantomNi::paper()),
            AtmAlgorithm::Eprca => Box::new(Eprca::recommended()),
            AtmAlgorithm::Aprc => Box::new(Aprc::recommended()),
            AtmAlgorithm::Capc => Box::new(Capc::recommended()),
            AtmAlgorithm::Erica => Box::new(Erica::recommended()),
            AtmAlgorithm::Osu => Box::new(Osu::recommended()),
        }
    }

    /// The algorithm's scene name.
    pub fn name(self) -> &'static str {
        Self::ALL
            .iter()
            .find(|(a, _)| *a == self)
            .map(|(_, n)| *n)
            .expect("every algorithm is in the table")
    }

    /// The algorithm a scene name denotes, if any.
    pub fn from_name(name: &str) -> Option<AtmAlgorithm> {
        Self::ALL.iter().find(|(_, n)| *n == name).map(|(a, _)| *a)
    }

    /// Every scene name joined by `|`, for error messages.
    pub fn names() -> String {
        Self::ALL.map(|(_, n)| n).join("|")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_round_trip() {
        for (alg, name) in AtmAlgorithm::ALL {
            assert_eq!(alg.name(), name);
            assert_eq!(AtmAlgorithm::from_name(name), Some(alg));
        }
        assert_eq!(AtmAlgorithm::from_name("nope"), None);
        assert!(AtmAlgorithm::names().starts_with("phantom|phantom-fixed-alpha|"));
    }
}
