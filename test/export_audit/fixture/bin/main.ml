(* Text matching would take [Config.default] for a use of the library's
   export, and the [~limit] beside [Audit_fixture.Config.run] for a pass
   of its label; the typed tree resolves both elsewhere. *)
module Config = struct
  let default = 0
  let limit = 1
end

let pass ~limit x = x + limit

let () =
  let module E = Audit_fixture.Engine in
  let limit = Config.limit in
  print_int (E.step Config.default + Common.Cfg.tuned + pass ~limit (Audit_fixture.Config.run ()))
