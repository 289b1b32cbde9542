// Package vo mirrors the verification-object surface of the real
// internal/vo package for analyzer fixtures.
package vo

type VO struct{ Nodes [][]byte }

func DecodeVO(b []byte) (*VO, error) { return &VO{}, nil }

type ResultSet struct{ Rows [][]byte }

func DecodeResultSet(b []byte) (*ResultSet, error) { return &ResultSet{}, nil }

// DecodeAnswer is a source built from sources: handing on what it
// decoded trusts nothing, its callers hold the taint.
func DecodeAnswer(b []byte) (*ResultSet, *VO, error) {
	rs, err := DecodeResultSet(b)
	if err != nil {
		return nil, nil, err
	}
	w, err := DecodeVO(b)
	if err != nil {
		return nil, nil, err
	}
	return rs, w, nil
}

// parseVO is not a source by name, so its callers would not see the
// taint: it may not hand the VO on.
func parseVO(b []byte) (*VO, error) {
	w, err := DecodeVO(b)
	if err != nil {
		return nil, err
	}
	return w, nil // want `returned without signature verification`
}

type StoredTuple struct{ Key uint64 }

func DecodeStoredTuple(b []byte) (*StoredTuple, error) { return &StoredTuple{}, nil }
