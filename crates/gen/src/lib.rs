//! # traj-gen — synthetic GPS trajectory workloads
//!
//! The paper evaluates on ten private GPS car traces "which travelled
//! different roads in urban and rural areas" (Table 2). Those traces are
//! not available; this crate is the documented substitution (see
//! `DESIGN.md`): a road-network micro-simulator producing `⟨t, x, y⟩`
//! series with the same observable characteristics — car kinematics with
//! junction slow-downs and stops, a 10-second sampling interval, GPS
//! noise, and trip statistics calibrated to the paper's Table 2 bands.
//!
//! Pipeline:
//!
//! 1. [`network::RoadNetwork`] — a jittered grid of urban streets with
//!    arterial rows/columns and faster peripheral "rural" roads;
//! 2. [`route`] — travel-time shortest paths between origin/destination
//!    nodes;
//! 3. [`vehicle`] — a kinematic car model (acceleration/braking
//!    envelopes, curve slow-down, random junction stops) driven along the
//!    route and sampled at a fixed interval;
//! 4. [`noise`] — AR(1)-correlated GPS position noise;
//! 5. [`dataset`] — the ten-trajectory [`dataset::paper_dataset`] used by
//!    every experiment, plus parameterized trip generation;
//! 6. [`simple`] — closed-form synthetic trajectories (straight runs,
//!    circles, random walks, stop-and-go) for unit tests and benches;
//! 7. [`fleet`] — O(1) closed-form fleet synthesis for ingest load
//!    generation at 100k–1M movers (the repository benchmark's
//!    `fleet_ingest` workload and the serve tests).

pub mod dataset;
pub mod fleet;
pub mod movers;
pub mod network;
pub mod noise;
pub mod route;
pub mod simple;
pub mod vehicle;

pub use dataset::{paper_dataset, TripConfig};
pub use fleet::{Fleet, FleetConfig};
pub use movers::{animal_track, pedestrian_trip, AnimalParams, PedestrianParams};
pub use network::{NodeId, RoadClass, RoadNetwork};
pub use noise::GpsNoise;
pub use vehicle::{drive_route, VehicleParams};
