import mutation_sweep


def test_every_equivalent_mutant_names_a_comparison_of_the_source():
    # a refactor that moves or rewrites a listed line leaves its entry dead
    # until someone runs the sweep by hand
    found = {}
    for module, text, op in mutation_sweep.EQUIVALENT:
        if module not in found:
            path = mutation_sweep.REPO / "src" / "loopcurrents" / f"{module}.py"
            source = path.read_text(encoding="utf-8")
            lines = source.splitlines()
            ops = mutation_sweep.mutants(source)
            found[module] = {(lines[n - 1].strip(), o) for n, _, o in ops}
        assert (text, op) in found[module], (module, text, op)
