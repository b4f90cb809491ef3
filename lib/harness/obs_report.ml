module Json = Ipds_obs.Json

let metrics_json () = Ipds_obs.Registry.snapshot_json ~stability:`Stable ()

let runtime_json () =
  Json.Obj
    [
      ("metrics", Ipds_obs.Registry.snapshot_json ~stability:`Unstable ());
      ("spans", Ipds_obs.Span.snapshot_json ());
    ]

let manifest_json () = Ipds_obs.Manifest.to_json ()
