"""Satisfiability engine for sentences exists z. forall x. exists y1...yn. psi.

The fragment is purely relational with equality.  The package parses
sentences, decides satisfiability by three deterministic methods built
on a shared witness search (1-type fixpoint, counter-bounded game, and a
z-relative extended-type fixpoint), emits independently checkable SAT
certificates and staged model constructions, and ships a brute-force
finite-model oracle for differential testing.

The package root exports nothing: import from its modules, e.g.
`eae_sat.syntax.parse` and `eae_sat.solver.solve`.
"""
