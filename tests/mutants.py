"""Mutants of ``src`` that the suite must kill, one row each.

A row is ``(name, path, old, new, tests)``: in ``path``, a file under
``src/`` relative to the repository root, the text ``old`` occurs exactly
once and is replaced by ``new``, and pytest on the node ids ``tests`` must
then fail.  ``tests/test_mutants.py`` replays every row.  A change that
says "the new test fails on a mutant" adds a row here.
"""

HOMEXT = "src/zdinfty/homext.py"
DECOMP = "src/zdinfty/decomp.py"
LINALG = "src/zdinfty/linalg.py"
WINDOW = "src/zdinfty/window.py"

MUTANTS = [
    # the torsion bar counts and the Euler form
    ("ext-interlacing-closed", HOMEXT,
     "if b < -ak <= d < nk - ak:", "if b <= -ak <= d < nk - ak:",
     ["tests/test_torsion_counts.py::test_counted_dims_are_list_lengths_on_catalog"]),
    ("hom-ft-birth-open", HOMEXT,
     "if -a <= e < n - a:", "if -a < e < n - a:",
     ["tests/test_torsion_counts.py::test_counted_dims_are_list_lengths_on_catalog"]),
    ("euler-without-ext-torsion", HOMEXT,
     "+ _hom_torsion(X, Y) - _ext_torsion(X, Y)", "+ _hom_torsion(X, Y)",
     ["tests/test_dimensions.py::test_dimensions_match_the_spaces_on_the_window"]),
    ("dimensions-field-check-late", DECOMP,
     "    check_same_field(X.field, Y.field)\n"
     "    xs, ys = (Counter(decompose(Z).factors) for Z in (X, Y))\n",
     "    xs, ys = (Counter(decompose(Z).factors) for Z in (X, Y))\n"
     "    check_same_field(X.field, Y.field)\n",
     ["tests/test_dimensions.py::test_mixed_fields_exit_2_before_any_elimination"]),
    # Hom and Ext spaces
    ("ext-class-blocks-swapped", HOMEXT,
     "h01, h10 = _split(blocks[0]", "h10, h01 = _split(blocks[0]",
     ["tests/test_ext_closed_form.py"]),
    ("hom-rows-fed-twice", HOMEXT,
     "    echelon = linalg._echelon(F, rows) if rows else linalg.NO_ROWS\n"
     "    return echelon, dim + pp * p",
     "    echelon = linalg._echelon(F, rows + rows) if rows else linalg.NO_ROWS\n"
     "    return echelon, dim + pp * p",
     ["tests/test_costs.py::test_cells_per_op_on_sums"]),
    ("ext-space-copies-its-echelon", HOMEXT,
     "    return ExtSpace(X, Y, echelon, pivots, widths, dim)",
     "    copy = linalg.Echelon(X.field)\n"
     "    copy.rows = [(col, tuple(row)) for col, row in echelon.rows]\n"
     "    return ExtSpace(X, Y, copy, pivots, widths, dim)",
     ["tests/test_costs.py::test_spaces_keep_their_counts_echelon"]),
    ("gram-rank-without-its-rank-term", HOMEXT,
     "gram_rank += linalg.rank(X.field, selected)", "gram_rank += 0",
     ["tests/test_serre_rank.py"]),
    # the elimination kernel
    ("rationals-cleared-by-the-largest-denominator", LINALG,
     "den = lcm(*[a.denominator for a in row])", "den = max(a.denominator for a in row)",
     ["tests/test_cross_field.py"]),
    ("new-pivot-left-in-stored-rows", LINALG,
     "            if row[piv]:\n                rows[k] = (col, _cancel(p, row, w, piv))",
     "            if False:\n                rows[k] = (col, _cancel(p, row, w, piv))",
     ["tests/test_canonical.py::test_canonicalize_matches_per_jump_rref"]),
    # lattices
    ("degree-of-first-coordinate", "src/zdinfty/lattice.py",
     "last = max((k for k, c in enumerate(gamma) if c), default=None)",
     "last = min((k for k, c in enumerate(gamma) if c), default=None)",
     ["tests/test_dual_basis.py::test_degree_of_matches_the_step_scan"]),
    ("annihilators-one-past", "src/zdinfty/lattice.py",
     "return self._dual[self.dim_at(d):]", "return self._dual[self.dim_at(d) + 1:]",
     ["tests/test_dual_basis.py::test_meet_matches_stacked_kernel_intersection"]),
    # decomposition
    ("kills-appended-elder-first", DECOMP,
     "for row, j in zip(uw[::-1], dying[::-1]):  # youngest first",
     "for row, j in zip(uw, dying):",
     ["tests/test_dual_rank_sweep.py::test_pieces_match_the_nullspace_sweep"]),
    ("certificate-ignores-torsion-rank", DECOMP,
     "if shape != object_shape(target) or tt_rank != len(shape[0]):",
     "if shape != object_shape(target):",
     ["tests/test_decomp.py"]),
    ("filtration-first-nonzero-pivot", DECOMP,
     "last = [max(i for i, c in enumerate(dir) if c) for _, dir in gens]",
     "last = [min(i for i, c in enumerate(dir) if c) for _, dir in gens]",
     ["tests/test_decomp.py"]),
    # the window bar sweep
    ("elder-slice-misaligned", WINDOW,
     "kill = live[j][0], row[:j + 1]", "kill = live[j][0], row[1:j + 2]",
     ["tests/test_middle_window.py"]),
    # fields and the CLI
    ("miller-rabin-bases-to-37", "src/zdinfty/fields.py",
     "_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)",
     "_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)",
     ["tests/test_scalars.py"]),
    ("serre-catalog-over-q", "src/zdinfty/cli.py",
     "objs = parse_catalog(args.catalog, field)",
     'objs = parse_catalog(args.catalog, parse_field("Q"))',
     ["tests/test_cli.py::test_field_option_reaches_the_sweeps"]),
    # the fast paths pinned by their calls
    ("all-zero-jump-eliminates", DECOMP,
     "if not any(map(any, images)):", "if False:",
     ["tests/test_costs.py::test_decompose_skips_kill_steps_where_no_column_is_nonzero"]),
    ("one-atom-parsed-as-a-sum", "src/zdinfty/cli.py",
     "if len(labels) == 1:", "if False:",
     ["tests/test_costs.py::test_one_atom_parses_without_a_sum"]),
    # one return shape for the kernel's free columns; the singularity lag
    ("kernel-free-columns-as-a-list", LINALG,
     "return tuple(basis), tuple(free)", "return tuple(basis), free",
     ["tests/test_middle_window.py::test_one_elimination_kills_match_the_rref_of_the_kernel"]),
    ("lag-one-short", "src/zdinfty/singularity.py",
     "max(0, d - e)", "max(0, d - e - 1)",
     ["tests/test_singularity.py"]),
    # C_e read off the canonical rows of S_e
    ("c-e-from-the-v0-rows", DECOMP,
     "for v in rows if not any(v[:p])]", "for v in rows if any(v[:p])]",
     ["tests/test_dual_rank_sweep.py::test_the_v1_rows_are_the_rref_of_c_e"]),
    # one multiply-accumulate loop: mm and the torsion mover run on mat_vec
    ("mm-reads-b-untransposed", LINALG,
     "cols = transpose(B) if inner else", "cols = B if inner else",
     ["tests/test_products.py::test_mm_matches_the_triple_loop"]),
    ("mm-zero-inner-without-columns", LINALG,
     "if inner else ((),) * bcols", "if inner else ()",
     ["tests/test_products.py::test_mm_matches_the_triple_loop"]),
    ("ft-image-reads-the-slots-at-d", HOMEXT,
     "at = dict(zip(T.slots_at(e), vec))", "at = dict(zip(slots, vec))",
     ["tests/test_transport.py::test_compose_and_twist_match_reference"]),
    # one derivation of the degree data; the product reads only v's nonzeros
    ("dim-at-bisects-left", "src/zdinfty/lattice.py",
     "return bisect_right(self.jump_list, d)",
     'return __import__("bisect").bisect_left(self.jump_list, d)',
     ["tests/test_jump_list.py"]),
    ("mat-vec-walks-every-entry", LINALG,
     "for j, b in nonzero:\n            if a := row[j]:",
     "for a, b in zip(row, v):\n            if a and b:",
     ["tests/test_products.py::test_mat_vec_reads_only_the_entries_at_v_nonzeros"]),
    ("fp-sum-left-unreduced", LINALG,
     "out.append(acc % p if p else acc)", "out.append(acc)",
     ["tests/test_products.py::test_mm_matches_the_triple_loop"]),
    # every product on mat_vec: the window's bar combinations and the Ext
    # reduction; dimensions counted through the factors
    ("window-kill-row-drops-the-bar", WINDOW,
     "row[:j + 1]\n            at = zip(*[chain[birth - b:] for b, chain in live[:j + 1]])",
     "row[:j]\n            at = zip(*[chain[birth - b:] for b, chain in live[:j]])",
     ["tests/test_middle_window.py"]),
    ("ext-reduce-adds-the-pivot-product", HOMEXT,
     "([-flat[k] for k in pivots],)", "([flat[k] for k in pivots],)",
     ["tests/test_homext.py::test_eta_well_defined_on_cosets"]),
    ("factor-pairs-weighed-by-one-side", DECOMP,
     "            hom += m * n * h\n            ext += m * n * (h",
     "            hom += m * h\n            ext += m * (h",
     ["tests/test_dimensions.py::test_factor_path_matches_the_frame_on_split_sums"]),
]
