//! ATM experiments that stay Rust runners (paper Sections 2–3 and 5):
//! the multi-run figures and the extensions that need more than one
//! scene can say. The single-network ATM figures are embedded scenes
//! ([`crate::catalog`]).

pub mod adaptive_alpha;
pub mod cbr_background;
pub mod erica_cmp;
pub mod lossy;
pub mod mcr;
pub mod statmux;
