//! The hierarchical event namespace (§3.2, Table 1).

pub mod initiator;
pub mod name;
pub mod pattern;

pub use initiator::EventInitiator;
pub use name::{EventName, EventNameError, COMPONENTS};
pub use pattern::EventPattern;
