let create ?sink ~syntax () =
  Cgraph.scheduler ?sink ~name:"SGT" ~commute:false syntax
