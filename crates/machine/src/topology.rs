//! Machine topology instantiation: CPU facilities and process mailboxes.

use crate::comm::{CommModel, CommParams};
use crate::error::MachineError;
use crate::params::SystemParams;
use prophet_sim::{FacilityId, MailboxId, Simulator};

/// Ids of the simulation resources that make up one instantiated machine.
#[derive(Debug, Clone)]
pub struct MachineLayout {
    /// One multi-server facility per node (servers = cpus per node).
    pub node_cpus: Vec<FacilityId>,
    /// One mailbox per MPI process (receive side).
    pub proc_mailboxes: Vec<MailboxId>,
}

/// The machine model: shape + communication parameters, instantiable into
/// a simulator.
#[derive(Debug, Clone)]
pub struct MachineModel {
    /// System parameters (SP).
    pub sp: SystemParams,
    /// Communication model bound to `sp`.
    pub comm: CommModel,
}

impl MachineModel {
    /// Create a machine model; validates `sp`.
    ///
    /// # Errors
    /// Returns the validation error for inconsistent parameters.
    pub fn new(sp: SystemParams, comm_params: CommParams) -> Result<Self, MachineError> {
        sp.validate()?;
        Ok(Self {
            sp,
            comm: CommModel::new(comm_params, sp),
        })
    }

    /// Node hosting process `pid` (block distribution).
    pub fn node_of(&self, pid: usize) -> usize {
        self.sp.node_of(pid)
    }

    /// Instantiate facilities and mailboxes in `sim`.
    ///
    /// "The program model is integrated with the machine model to create
    /// the model of the whole computer system" — this is the machine half;
    /// the estimator spawns the program processes on top.
    pub fn instantiate(&self, sim: &mut Simulator) -> MachineLayout {
        let node_cpus = (0..self.sp.nodes)
            .map(|n| sim.add_facility(&format!("node{n}.cpu"), self.sp.cpus_per_node))
            .collect();
        let proc_mailboxes = (0..self.sp.processes)
            .map(|p| sim.add_mailbox(&format!("proc{p}.inbox")))
            .collect();
        MachineLayout {
            node_cpus,
            proc_mailboxes,
        }
    }

    /// CPU facility for process `pid` within a layout.
    pub fn cpu_facility_of(&self, layout: &MachineLayout, pid: usize) -> FacilityId {
        layout.node_cpus[self.node_of(pid)]
    }

    /// Mailbox of process `pid`.
    pub fn mailbox_of(&self, layout: &MachineLayout, pid: usize) -> MailboxId {
        layout.proc_mailboxes[pid]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use prophet_sim::Config;

    #[test]
    fn instantiation_counts() {
        let m = MachineModel::new(SystemParams::flat_mpi(3, 2), CommParams::default()).unwrap();
        let mut sim = Simulator::new(Config::default());
        let layout = m.instantiate(&mut sim);
        assert_eq!(layout.node_cpus.len(), 3);
        assert_eq!(layout.proc_mailboxes.len(), 6);
    }

    #[test]
    fn placement_is_consistent_with_sp() {
        let m = MachineModel::new(SystemParams::flat_mpi(2, 2), CommParams::default()).unwrap();
        let mut sim = Simulator::new(Config::default());
        let layout = m.instantiate(&mut sim);
        assert_eq!(m.cpu_facility_of(&layout, 0), layout.node_cpus[0]);
        assert_eq!(m.cpu_facility_of(&layout, 1), layout.node_cpus[0]);
        assert_eq!(m.cpu_facility_of(&layout, 2), layout.node_cpus[1]);
        assert_eq!(m.cpu_facility_of(&layout, 3), layout.node_cpus[1]);
    }

    #[test]
    fn invalid_sp_rejected() {
        assert!(MachineModel::new(
            SystemParams {
                nodes: 4,
                cpus_per_node: 1,
                processes: 2,
                threads_per_process: 1
            },
            CommParams::default()
        )
        .is_err());
    }
}
