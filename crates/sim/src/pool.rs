//! The simulator's one worker pool.
//!
//! A single run steps its channel shards sequentially on its own thread
//! (see [`crate::subsystem`]); parallelism comes from running *whole*
//! simulations side by side. [`queue::StealingPool`] does that: the owner
//! pushes jobs into a shared injector queue, idle workers pull the next
//! one the moment they finish, and completions come back tagged with the
//! caller's sequence numbers so the owner can restore any order it
//! likes. The campaign executor fans its run matrix and normalization
//! prelude out over it and reorders completions back into run order.

pub mod queue;
