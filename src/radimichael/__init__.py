"""Carmichael, radimichael, and k-Lehmer numbers: classification, exhaustive
surveys, and certified constructions from geometric prime tuples."""
