package ehrhart

import (
	"repro/internal/nest"
	"repro/internal/poly"
	"repro/internal/telemetry"
)

// RankingInstrumented computes the ranking and counting polynomials of
// the nest from one trip-count summation, emitting a "compile"-category
// span on tel so users can see where symbolic-summation time goes
// (degree-2 vs degree-4 nests differ sharply here). tel may be nil; the
// results always equal Ranking(n) and Count(n).
func RankingInstrumented(n *nest.Nest, tel *telemetry.Registry) (ranking, count *poly.Poly) {
	sp := tel.StartSpan("compile", "ehrhart.Ranking", 0)
	T := TripCounts(n)
	ranking = rankingFrom(n, T)
	sp.End(
		telemetry.Arg{Name: "depth", Value: int64(n.Depth())},
		telemetry.Arg{Name: "degree", Value: int64(ranking.MaxVarDegree())},
	)
	return ranking, T[0]
}
