(** Machine-speed calibration for end-to-end times.

    The shared 2-vCPU box this benchmark was written on changes speed by
    up to a third over minutes, with no steal time reported: a pass with
    no randomness took 2.5 s and then 3.4 s a minute later in one
    process. A run of one workload lasts 20 s, so its median cannot
    average that drift out. Instead every run also times a fixed kernel of
    standard-library work (hashing, short-lived lists, a sort: the same
    kind of allocation and pointer chasing the workloads do) before each
    pass, and scales its times by [reference_s / median kernel time].
    Over those minutes the pass-to-kernel ratio held within a few
    percent while raw pass times moved by a third.

    The kernel uses nothing from the toolkit, so a change to the toolkit
    cannot change it. *)

val reference_s : float
(** 0.1: the kernel's time on a quiet development box. Scaled times are
    seconds on a machine that runs the kernel in this time. *)

val time_kernel : unit -> float
(** Runs the kernel once; its wall seconds. *)
