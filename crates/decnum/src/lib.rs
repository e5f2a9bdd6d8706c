//! A decNumber-like IEEE 754-2008 decimal floating-point library.
//!
//! This crate plays the role the IBM decNumber C library plays in the paper:
//! it is the **pure-software decimal arithmetic baseline** that the
//! hardware-accelerated co-design is compared against, and the **reference
//! oracle** that every co-design implementation must agree with across the
//! verification database.
//!
//! The model follows the General Decimal Arithmetic specification:
//!
//! * [`DecNumber`] — sign + decimal coefficient + exponent, of any length;
//! * [`Context`] — working precision, rounding mode, exponent range and
//!   accumulated [`Status`] flags;
//! * arithmetic (`add`, `sub`, `mul`, `div`, `compare`, `quantize`, and the
//!   quiet `abs`/`neg`) that computes exact intermediates and rounds once;
//! * conversions to and from the DPD interchange formats
//!   ([`dpd::Decimal64`], [`dpd::Decimal128`]).
//!
//! # Example
//!
//! ```
//! use decnum::{Context, DecNumber, Status};
//!
//! let mut ctx = Context::decimal64();
//! let x: DecNumber = "1.05".parse().unwrap();
//! let rate: DecNumber = "0.0825".parse().unwrap();
//! let tax = x.mul(&rate, &mut ctx);
//! assert_eq!(tax.to_string(), "0.086625");
//! assert!(ctx.status().is_clear());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod arith;
mod context;
mod convert;
mod number;
mod round;

pub use context::{Context, Rounding, Status};
pub use convert::{add_decimal64, mul_decimal128, mul_decimal64, sub_decimal64};
pub use dpd::Sign;
pub use number::{DecNumber, Kind, ParseDecError};
