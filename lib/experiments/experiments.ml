(** Regeneration code for every table and figure of the paper, plus the
    ablations DESIGN.md calls out. One module per experiment; the CLI
    ([bin/portals_repro.ml]) drives these. *)

module Fig5 = Fig5
module Fig6 = Fig6
module Latency = Latency
module Bandwidth = Bandwidth
module Tables = Tables
module Protocols = Protocols
module Translation = Translation
module Scaling = Scaling
module Drops = Drops
module Ablation = Ablation
module Rel_loss_sweep = Rel_loss_sweep
module Crash_restart = Crash_restart
module Perf = Perf
module Congestion = Congestion
module Matrix = Matrix
module Rma = Rma
module Chaos = Chaos
module Par = Par
module Coll = Coll
