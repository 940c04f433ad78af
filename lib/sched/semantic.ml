let create ?sink ~syntax () =
  Cgraph.scheduler ?sink ~name:"semantic" ~commute:true syntax
