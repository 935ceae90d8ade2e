(** XMTSim — the cycle-accurate simulator of the XMT architecture
    (paper §III), built on the {!Desim} discrete-event engine.

    {!Machine} is the cycle-accurate model (Fig. 1 components:
    TCUs/clusters with shared MDU/FPU, prefetch buffers, read-only caches,
    the interconnection network, hashed shared cache modules, DRAM, the
    global prefix-sum unit and the spawn-join mechanism), driven by the
    execution-driven {!Funcmodel}.  {!Functional_mode} is the fast
    serializing mode.  {!Stats} holds the counters; {!Probe} is the one
    passive observer interface, behind {!Plugin}'s filters, {!Trace},
    {!Profile}, {!Racedetect} and {!Heartbeat} (§III-B/E); {!Power},
    {!Thermal}, {!Sampler} and {!Floorplan} the §III-F power/temperature
    stack;
    {!Machine.checkpoint} the §III-E checkpoints. *)

module Config = Config
module Mem = Mem
module Funcmodel = Funcmodel
module Stats = Stats
module Tags = Tags
module Prefetch_buffer = Prefetch_buffer
module Probe = Probe
module Machine = Machine
module Plugin = Plugin
module Racedetect = Racedetect
module Profile = Profile
module Heartbeat = Heartbeat
module Functional_mode = Functional_mode
module Reuseprofile = Reuseprofile
module Phase_sampling = Phase_sampling
module Trace = Trace
module Power = Power
module Thermal = Thermal
module Floorplan = Floorplan
module Sampler = Sampler
module Governor = Governor
