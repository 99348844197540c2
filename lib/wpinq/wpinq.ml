(** Umbrella namespace: one [open Wpinq]-style entry point re-exporting
    every library in the platform.  See the individual interfaces for
    documentation; README.md maps them to the paper's sections. *)

module Prng = Wpinq_prng.Prng
module Persist = Wpinq_persist.Persist
module Wdata = Wpinq_weighted.Wdata
module Ops = Wpinq_weighted.Ops
module Dataflow = Wpinq_dataflow.Dataflow
module Budget = Wpinq_core.Budget
module Lang = Wpinq_core.Lang
module Batch = Wpinq_core.Batch
module Flow = Wpinq_core.Flow
module Measurement = Wpinq_core.Measurement
module Mechanisms = Wpinq_core.Mechanisms
module Plan = Wpinq_core.Plan
module Queries = Wpinq_queries.Queries
module Graph = Wpinq_graph.Graph
module Gen = Wpinq_graph.Gen
module Rewire = Wpinq_graph.Rewire
module Graph_io = Wpinq_graph.Io
module Fenwick = Wpinq_graph.Fenwick
module Isotonic = Wpinq_postprocess.Isotonic
module Gridpath = Wpinq_postprocess.Gridpath
module Mcmc = Wpinq_infer.Mcmc
module Fit = Wpinq_infer.Fit
module Workflow = Wpinq_infer.Workflow
module Datasets = Wpinq_data.Datasets
module Pinq = Wpinq_baselines.Pinq
module Smooth = Wpinq_baselines.Smooth
module Wal = Wpinq_service.Wal
module Ledger = Wpinq_service.Ledger
