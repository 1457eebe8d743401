//! The ATM runner that stays in Rust: EXT5, whose MCR guarantees need a
//! per-session minimum cell rate that a scene cannot declare. Every
//! other ATM figure is an embedded scene ([`crate::catalog`]).

pub mod mcr;
