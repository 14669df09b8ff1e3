(** Structural-Verilog export.

    Emits a circuit as a flat Verilog module built from the standard
    gate primitives ([nand], [nor], [and], [or], [xor], [xnor], [not],
    [buf]), so runs can be cross-checked against any Verilog simulator.
    AOI/OAI/MUX cells are decomposed into primitives; per-pin VT
    overrides and loads are emitted as comments (no Verilog
    equivalent). *)

val to_string : Netlist.t -> string
(** A complete [module ... endmodule] document. *)
