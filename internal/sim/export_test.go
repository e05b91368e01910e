package sim

import "btr/internal/workload"

// CachedResult returns the profile-cache entry cfg holds for spec (the
// entry's own result, not a served copy), or nil.
func CachedResult(cfg Config, spec workload.Spec) *InputResult {
	c := cfg.Profiles
	c.mu.Lock()
	defer c.mu.Unlock()
	if e := c.entries[profileKey{cfg.cacheKey(spec), cfg.window()}]; e != nil {
		return &e.res
	}
	return nil
}
