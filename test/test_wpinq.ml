let () =
  Alcotest.run "wpinq"
    [
      ("prng", Test_prng.suite);
      ("persist", Test_persist.suite);
      ("weighted", Test_weighted.suite);
      ("dataflow", Test_dataflow.suite);
      ("itbl", Test_itbl.suite);
      ("speculation", Test_speculation.suite);
      ("audit", Test_audit.suite);
      ("core", Test_core.suite);
      ("plan", Test_plan.suite);
      ("optimizer", Test_optimizer.suite);
      ("graph", Test_graph.suite);
      ("queries", Test_queries.suite);
      ("postprocess", Test_postprocess.suite);
      ("infer", Test_infer.suite);
      ("checkpoint", Test_checkpoint.suite);
      ("shared-fit", Test_shared_fit.suite);
      ("lookahead", Test_lookahead.suite);
      ("data", Test_data.suite);
      ("edge-cases", Test_edge_cases.suite);
      ("baselines", Test_baselines.suite);
      ("laws", Test_laws.suite);
      ("experiments", Test_experiments.suite);
      ("ledger", Test_ledger.suite);
      ("stream", Test_stream.suite);
      ("exact", Test_exact.suite);
    ]
