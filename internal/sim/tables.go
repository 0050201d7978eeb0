package sim

import (
	"fmt"

	"gridtrust/internal/grid"
	"gridtrust/internal/report"
	"gridtrust/internal/secover"
	"gridtrust/internal/stats"
	"gridtrust/internal/workload"
)

// The builders of every table more than one front-end prints (the root
// facade, cmd/trustsim, cmd/sweep and WriteFullReport), parameterised by
// what those callers vary: captions, column labels, the ETS rule, the file
// sizes.

// ETSTable builds the paper's Table 1, the expected trust supplement for
// every (required, offered) trust-level pair, under either reading of the
// F row.
func ETSTable(title string, rule grid.ETSRule) (*report.Table, error) {
	tb := report.NewTable(title, "requested TL", "A", "B", "C", "D", "E")
	for r := grid.LevelA; r <= grid.LevelF; r++ {
		row := []string{r.String()}
		for o := grid.MinOfferable; o <= grid.MaxOfferable; o++ {
			v, err := grid.ETSWith(rule, r, o)
			if err != nil {
				return nil, err
			}
			row = append(row, fmt.Sprint(v))
		}
		tb.AddRow(row...)
	}
	return tb, nil
}

// TransferTable builds the paper's Table 2 (mbps = 100) or Table 3 (1000):
// plain against secure copy time for each file size.  rcpCol and scpCol
// head the two time columns.
func TransferTable(title, rcpCol, scpCol string, mbps float64, sizes []float64) (*report.Table, error) {
	link, err := secover.LinkFor(mbps)
	if err != nil {
		return nil, err
	}
	rows, err := link.Table(sizes)
	if err != nil {
		return nil, err
	}
	tb := report.NewTable(title, "File size/MB", rcpCol, scpCol, "Overhead")
	for _, r := range rows {
		tb.AddRow(fmt.Sprintf("%g", r.SizeMB),
			fmt.Sprintf("%.2f", r.RcpSeconds),
			fmt.Sprintf("%.2f", r.ScpSeconds),
			report.Percent(r.OverheadPercent, 2))
	}
	return tb, nil
}

// PaperTable is one of the paper's simulation tables: a heuristic on one
// consistency class of the LoLo workload.
type PaperTable struct {
	// Number is the table's number in the paper.
	Number int
	// Heuristic is the sched registry name, Label the paper's spelling.
	Heuristic, Label string
	Consistency      workload.Consistency
}

// PaperTables lists Tables 4-9 in paper order.
func PaperTables() []PaperTable {
	return []PaperTable{
		{4, "mct", "MCT", workload.Inconsistent},
		{5, "mct", "MCT", workload.Consistent},
		{6, "minmin", "Min-min", workload.Inconsistent},
		{7, "minmin", "Min-min", workload.Consistent},
		{8, "sufferage", "Sufferage", workload.Inconsistent},
		{9, "sufferage", "Sufferage", workload.Consistent},
	}
}

// ComparisonTable renders one standard six-column metric row per cell of a
// comparison grid; label heads the cell-name column.
func ComparisonTable(title, label string, cells []CompareCell, cmps []*Comparison) *report.Table {
	tb := report.NewTable(title,
		label, "util (unaware)", "avg completion (unaware)", "avg completion (aware)", "improvement", "significant")
	for i, cmp := range cmps {
		tb.AddRow(cells[i].Name,
			report.Fraction(cmp.Unaware.Utilization.Mean(), 1),
			report.Seconds(cmp.Unaware.AvgCompletion.Mean()),
			report.Seconds(cmp.Aware.AvgCompletion.Mean()),
			report.Percent(cmp.ImprovementPercent(), 2),
			fmt.Sprint(cmp.CompletionPairs.Significant()))
	}
	return tb
}

// plusMinus formats an aggregate as "mean ± CI95".
func plusMinus(r stats.Running) string {
	return fmt.Sprintf("%.2f ± %.2f", r.Mean(), r.CI95())
}

// percentPlusMinus formats an aggregate of percentages as "mean% ± ci%".
func percentPlusMinus(r stats.Running) string {
	return fmt.Sprintf("%.1f%% ± %.1f%%", r.Mean(), r.CI95())
}

// SharePlusMinus formats an aggregate of fractions as "mean% ± ci%".
func SharePlusMinus(r stats.Running) string {
	return fmt.Sprintf("%.1f%% ± %.1f%%", r.Mean()*100, r.CI95()*100)
}

// CollusionTable renders the recommender-collusion study, one row per
// FaultStudyGrid cell.  headers names the columns: cell, trust error,
// degradation, bad share, liar R and honest R; a table given only the
// first five has no honest-R column.
func CollusionTable(title string, cells []FaultStudyCell, results []*FaultStudyResult, headers ...string) *report.Table {
	tb := report.NewTable(title, headers...)
	for i, res := range results {
		tb.AddRow(cells[i].Name,
			plusMinus(res.TrustError),
			percentPlusMinus(res.DegradationPct),
			SharePlusMinus(res.BadShare),
			fmt.Sprintf("%.2f", res.MeanLiarR.Mean()),
			fmt.Sprintf("%.2f", res.MeanHonestR.Mean()))
	}
	return tb
}

// ZooTable renders the trust-model zoo, one row per ZooGrid cell.  headers
// names the four columns: cell, trust error, degradation, bad share.
func ZooTable(title string, cells []ZooCell, results []*ZooCellResult, headers ...string) *report.Table {
	tb := report.NewTable(title, headers...)
	for i, res := range results {
		tb.AddRow(cells[i].Name,
			plusMinus(res.TrustError),
			percentPlusMinus(res.DegradationPct),
			SharePlusMinus(res.BadShare))
	}
	return tb
}
