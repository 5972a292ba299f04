package pisd

import (
	"fmt"

	"pisd/internal/frontend"
	"pisd/internal/groups"
)

// SystemConfig parameterizes an in-process System.
type SystemConfig struct {
	// Frontend configures keys, LSH and index parameters.
	Frontend FrontendConfig
}

// DefaultSystemConfig returns the paper's default operating point for the
// given profile dimensionality (vocabulary size).
func DefaultSystemConfig(dim int) SystemConfig {
	return SystemConfig{Frontend: frontend.DefaultConfig(dim)}
}

// System wires a Frontend and an in-process Cloud together: the shortest
// path from profiles to private recommendations. Production deployments
// run the two entities as separate processes (see CloudServer/CloudClient
// and examples/distributed); System exists for embedding, tests and
// experiments.
type System struct {
	// SF is the trusted front end; CS the untrusted cloud.
	SF *Frontend
	CS *Cloud
}

// NewSystem creates the pair.
func NewSystem(cfg SystemConfig) (*System, error) {
	sf, err := NewFrontend(cfg.Frontend)
	if err != nil {
		return nil, fmt.Errorf("pisd: %w", err)
	}
	return &System{SF: sf, CS: NewCloud()}, nil
}

// AddProfiles performs service frontend initialization over the uploads:
// it builds the secure index, outsources it together with the encrypted
// profiles to the cloud, and discards the plaintext.
func (s *System) AddProfiles(uploads []Upload) error {
	idx, encProfiles, err := s.SF.BuildIndex(uploads)
	if err != nil {
		return fmt.Errorf("pisd: add profiles: %w", err)
	}
	s.CS.SetIndex(idx)
	s.CS.PutProfiles(encProfiles)
	return nil
}

// Discover returns the top-k recommended users for a target profile via
// the full privacy-preserving flow (trapdoor → SecRec at the cloud →
// decrypt → distance ranking).
func (s *System) Discover(targetProfile []float64, k int) ([]Match, error) {
	return s.SF.Discover(s.CS, targetProfile, k, 0)
}

// DiscoverFor is Discover for an indexed user, excluding the user's own
// identifier from the results.
func (s *System) DiscoverFor(userID uint64, targetProfile []float64, k int) ([]Match, error) {
	return s.SF.Discover(s.CS, targetProfile, k, userID)
}

// DiscoverFoF composes discovery with friend-of-friend boosting over a
// social graph: 2k distance-ranked matches re-ordered by BoostFoF and cut
// to k.
func (s *System) DiscoverFoF(graph *SocialGraph, userID uint64, targetProfile []float64, k int) ([]Match, error) {
	matches, err := s.DiscoverFor(userID, targetProfile, 2*k)
	if err != nil {
		return nil, err
	}
	return BoostFoF(graph, userID, matches, k), nil
}

// DiscoverGroups implements the paper's group-discovery application: it
// runs the privacy-preserving top-k discovery for every given member and
// clusters the resulting mutual neighbourhoods into social groups. The
// cloud observes only the ordinary per-user trapdoor queries.
func (s *System) DiscoverGroups(memberProfiles map[uint64][]float64, k int, opts GroupOptions) ([]Group, error) {
	neighbors := make(map[uint64][]GroupNeighbor, len(memberProfiles))
	for id, profile := range memberProfiles {
		matches, err := s.SF.Discover(s.CS, profile, k, id)
		if err != nil {
			return nil, fmt.Errorf("pisd: group discovery for %d: %w", id, err)
		}
		ns := make([]GroupNeighbor, len(matches))
		for i, m := range matches {
			ns[i] = GroupNeighbor{ID: m.ID, Distance: m.Distance}
		}
		neighbors[id] = ns
	}
	return groups.Discover(neighbors, opts)
}
