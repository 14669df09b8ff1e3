(** Physical scalars used throughout HALOTIS.

    All times are in picoseconds, voltages in volts and capacitances in
    femtofarads, carried as plain [float]s.  This module centralises the
    conventions and the formatting helpers so the rest of the code never
    hard-codes a unit conversion. *)

type time = float
(** Time in picoseconds. *)

type voltage = float
(** Voltage in volts. *)

type capacitance = float
(** Capacitance in femtofarads. *)

val pp_time : Format.formatter -> time -> unit
(** Prints a time with an adaptive unit ([ps] or [ns]). *)
