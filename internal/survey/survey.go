// Package survey encodes the paper's empirical dataset — the ten
// interviewed supercomputing centers (Table 1), the anonymized per-site
// contract-component matrix and responsible-negotiating-party column
// (Table 2), and the quantified statements of the running text — and
// regenerates the paper's exhibits from it.
//
// Two layers of data exist and are kept separate exactly as the paper
// keeps them: the named site roster (Table 1) and the anonymized site
// records (Table 2). The paper never maps one onto the other, and
// neither do we.
//
// Each anonymized record also carries a synthetic but representative
// executable contract (built via contract.Spec) whose typology
// classification reproduces that site's Table 2 row; the Table 2
// generator classifies those contracts rather than echoing the stored
// booleans, so the classification pipeline itself is exercised end to
// end.
//
// Known text/table inconsistency: the running text of §3.2.4 says eight
// sites have fixed tariffs and eight have demand charges, and describes
// three time-of-use and two dynamic sites; the printed Table 2 matrix
// has 7 fixed, 7 demand-charge, 2 TOU and 3 dynamic ticks. This package
// treats the matrix as ground truth (it is the per-site primary data)
// and exposes both numbers — MatrixCounts and TextClaims — so reports
// can show the discrepancy instead of hiding it.
package survey

import (
	"fmt"
	"time"

	"repro/internal/contract"
)

// Region is the coarse geography used by the study.
type Region int

// Regions covered by the survey.
const (
	Europe Region = iota
	UnitedStates
)

// String returns the region name.
func (r Region) String() string {
	switch r {
	case Europe:
		return "Europe"
	case UnitedStates:
		return "United States"
	default:
		return fmt.Sprintf("Region(%d)", int(r))
	}
}

// RosterEntry is one named interview site (Table 1).
type RosterEntry struct {
	Name    string
	Country string
	Region  Region
}

// Roster returns Table 1: the interview sites and their countries, in
// the paper's order.
func Roster() []RosterEntry {
	return []RosterEntry{
		{"European Centre for Medium-range Weather Forecasts", "England", Europe},
		{"GSI Helmholtz Center", "Germany", Europe},
		{"Jülich Supercomputing Centre", "Germany", Europe},
		{"High Performance Computing Center Stuttgart", "Germany", Europe},
		{"Leibniz Supercomputing Centre", "Germany", Europe},
		{"Swiss National Supercomputing Centre", "Switzerland", Europe},
		{"Los Alamos National Laboratory", "United States", UnitedStates},
		{"National Center for Supercomputing Applications", "United States", UnitedStates},
		{"Oak Ridge National Laboratory", "United States", UnitedStates},
		{"Lawrence Livermore National Laboratory", "United States", UnitedStates},
	}
}

// RNP is the responsible negotiating party for electricity procurement
// (§3.3): the SC itself, an internal organization (university or lab
// level), or an external organization (e.g. the US Department of Energy).
type RNP int

// Responsible negotiating parties.
const (
	RNPSupercomputingCenter RNP = iota
	RNPInternal
	RNPExternal
)

// String returns the Table 2 label.
func (r RNP) String() string {
	switch r {
	case RNPSupercomputingCenter:
		return "SC"
	case RNPInternal:
		return "Internal"
	case RNPExternal:
		return "External"
	default:
		return fmt.Sprintf("RNP(%d)", int(r))
	}
}

// SiteRecord is one anonymized survey row (Table 2), plus the narrative
// attributes the text reports in aggregate.
type SiteRecord struct {
	// ID is the anonymized site number (1–10).
	ID int
	// Profile is the site's typology row in Table 2.
	Profile contract.Profile
	// RNP is the responsible negotiating party.
	RNP RNP
	// CommunicatesSwings marks the six sites that report load swings to
	// their ESP (§3.4). The paper gives only the count, not the per-site
	// assignment; the assignment here is synthetic and marked as such.
	CommunicatesSwings bool
	// SwingsByContract distinguishes contractual reporting from good
	// business practice (only meaningful when CommunicatesSwings).
	SwingsByContract bool
}

// Records returns the ten anonymized site rows exactly as printed in
// Table 2. The CommunicatesSwings flags are a synthetic assignment
// consistent with the published aggregate (six of ten, "some ... by
// contract while others ... as part of a good business relationship").
func Records() []SiteRecord {
	return []SiteRecord{
		{ID: 1, Profile: contract.Profile{DemandCharge: true, FixedTariff: true, TOUTariff: true}, RNP: RNPExternal, CommunicatesSwings: true, SwingsByContract: true},
		{ID: 2, Profile: contract.Profile{DemandCharge: true, Powerband: true, FixedTariff: true}, RNP: RNPInternal, CommunicatesSwings: true, SwingsByContract: true},
		{ID: 3, Profile: contract.Profile{DemandCharge: true, FixedTariff: true, EmergencyDR: true}, RNP: RNPInternal, CommunicatesSwings: true},
		{ID: 4, Profile: contract.Profile{DemandCharge: true, DynamicTariff: true}, RNP: RNPInternal},
		{ID: 5, Profile: contract.Profile{DemandCharge: true, Powerband: true, FixedTariff: true}, RNP: RNPInternal, CommunicatesSwings: true, SwingsByContract: true},
		{ID: 6, Profile: contract.Profile{Powerband: true, FixedTariff: true}, RNP: RNPSupercomputingCenter, CommunicatesSwings: true},
		{ID: 7, Profile: contract.Profile{DemandCharge: true, Powerband: true, DynamicTariff: true, EmergencyDR: true}, RNP: RNPInternal, CommunicatesSwings: true},
		{ID: 8, Profile: contract.Profile{DynamicTariff: true}, RNP: RNPInternal},
		{ID: 9, Profile: contract.Profile{DemandCharge: true, Powerband: true, FixedTariff: true, TOUTariff: true}, RNP: RNPExternal},
		{ID: 10, Profile: contract.Profile{FixedTariff: true}, RNP: RNPExternal},
	}
}

// BuildContext supplies the price feed synthetic dynamic-tariff sites
// need. DefaultBuildContext returns a flat reference feed suitable for
// classification purposes.
func DefaultBuildContext(start time.Time) contract.BuildContext {
	return contract.BuildContext{Feed: contract.FlatFeed(start, contract.FlatFeedRate)}
}

// BuildContract constructs the representative executable contract for a
// site record: parameters are synthetic (the survey is anonymized and
// price levels were explicitly out of scope) but the component structure
// matches the site's Table 2 row exactly.
func BuildContract(site SiteRecord, ctx contract.BuildContext) (*contract.Contract, error) {
	spec := SiteSpec(site)
	return spec.Build(ctx)
}

// SiteSpec returns the serializable contract spec behind BuildContract,
// so the ten survey contracts can be shipped over the wire (the billing
// service), stored on disk, and round-trip tested.
func SiteSpec(site SiteRecord) contract.Spec {
	spec := contract.Spec{Name: fmt.Sprintf("Site %d", site.ID)}
	if site.Profile.FixedTariff {
		spec.Tariffs = append(spec.Tariffs, contract.TariffSpec{Type: "fixed", Rate: 0.085})
	}
	if site.Profile.TOUTariff {
		// The configurations observed: a variable service charge on top
		// of the fixed rate (Sites 1 and 9).
		spec.Tariffs = append(spec.Tariffs, contract.TariffSpec{
			Type: "tou", DayRate: 0.030, NightRate: 0.010, DayFrom: 8, DayTo: 20,
		})
	}
	if site.Profile.DynamicTariff {
		spec.Tariffs = append(spec.Tariffs, contract.TariffSpec{Type: "dynamic", Multiplier: 1.1, Adder: 0.005})
	}
	if site.Profile.DemandCharge {
		spec.DemandCharges = append(spec.DemandCharges, contract.DemandChargeSpec{
			PricePerKW: 12, Method: "n-peak-average", NPeaks: 3,
		})
	}
	if site.Profile.Powerband {
		spec.Powerbands = append(spec.Powerbands, contract.PowerbandSpec{
			LowerKW: 2000, UpperKW: 14000, UnderPenalty: 0.10, OverPenalty: 0.40,
		})
	}
	if site.Profile.EmergencyDR {
		spec.Emergencies = append(spec.Emergencies, contract.EmergencySpec{
			Name: "grid-emergency", CapKW: 6000, NoticeMinutes: 30, Penalty: 1.50,
		})
	}
	return spec
}

// Counts aggregates the Table 2 matrix.
type Counts struct {
	// Component counts the ticks per typology column.
	Component map[contract.Component]int
	// RNP counts sites per negotiating party.
	RNP map[RNP]int
	// CommunicateSwings counts §3.4's reporting sites.
	CommunicateSwings int
	// Sites is the total number of rows.
	Sites int
}

// MatrixCounts tallies the published Table 2 matrix (the per-site primary
// data) by classifying each site's built contract.
func MatrixCounts() (Counts, error) {
	ctx := DefaultBuildContext(time.Date(2016, time.January, 1, 0, 0, 0, 0, time.UTC))
	counts := Counts{
		Component: make(map[contract.Component]int),
		RNP:       make(map[RNP]int),
	}
	for _, site := range Records() {
		c, err := BuildContract(site, ctx)
		if err != nil {
			return Counts{}, fmt.Errorf("survey: site %d: %w", site.ID, err)
		}
		profile := contract.Classify(c)
		if profile != site.Profile {
			return Counts{}, fmt.Errorf("survey: site %d classification %v does not reproduce its Table 2 row %v",
				site.ID, profile, site.Profile)
		}
		for _, comp := range profile.Components() {
			counts.Component[comp]++
		}
		counts.RNP[site.RNP]++
		if site.CommunicatesSwings {
			counts.CommunicateSwings++
		}
		counts.Sites++
	}
	return counts, nil
}

// TextClaims returns the aggregate numbers as stated in the paper's
// running text (§3.2.4, §3.3, §3.4), which disagree with the printed
// matrix in four cells — see the package comment.
func TextClaims() Counts {
	return Counts{
		Component: map[contract.Component]int{
			contract.CompFixedTariff:   8,
			contract.CompTOUTariff:     3,
			contract.CompDynamicTariff: 2,
			contract.CompDemandCharge:  8,
			contract.CompPowerband:     5,
			contract.CompEmergencyDR:   2,
		},
		RNP: map[RNP]int{
			RNPSupercomputingCenter: 1,
			RNPInternal:             6,
			RNPExternal:             3,
		},
		CommunicateSwings: 6,
		Sites:             10,
	}
}

// Discrepancy is one cell where the running text and the printed matrix
// disagree.
type Discrepancy struct {
	Component contract.Component
	Text      int
	Matrix    int
}

// Discrepancies compares TextClaims against MatrixCounts and returns the
// cells that differ, in Table 2 column order.
func Discrepancies() ([]Discrepancy, error) {
	matrix, err := MatrixCounts()
	if err != nil {
		return nil, err
	}
	text := TextClaims()
	var out []Discrepancy
	for _, comp := range contract.AllComponents() {
		if text.Component[comp] != matrix.Component[comp] {
			out = append(out, Discrepancy{
				Component: comp,
				Text:      text.Component[comp],
				Matrix:    matrix.Component[comp],
			})
		}
	}
	return out, nil
}

// GeographicFinding restates the survey's regional conclusion: contrary
// to the hypothesis from prior work, no difference between Europe and
// the United States was found, and the results show no geographic trends.
const GeographicFinding = "The current work specifically asked this question of all sites and " +
	"discovered that there was not a difference between SCs in Europe and the United States. " +
	"Furthermore, the survey results did not show any geographic trends."
