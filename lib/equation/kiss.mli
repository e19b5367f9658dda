(** KISS2 interchange for the extracted machines (the FSM format of SIS /
    MVSIS / BALM, the toolchain of the paper). Write-only: machines are
    written for those tools, and nothing here reads them back. The
    module makes the text; writing the file is the caller's.

    A Moore machine is emitted in the (Mealy-style) KISS2 row format with
    the source state's output on every outgoing row:

    {v
    .i <#inputs>
    .o <#outputs>
    .p <#rows>
    .s <#states>
    .r <reset state>
    <input-cube> <src> <dst> <output-bits>
    ...
    .e
    v} *)

val to_kiss2 : Machine.t -> string
